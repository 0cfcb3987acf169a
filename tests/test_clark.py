"""Clark measures: atom location, weights, moment identities, desintegration."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerclt import clark
from innerclt.blaschke import (BlaschkeProduct, CirclePoint,
                               iterate_derivative_on_circle, monomial, taylor_table)
from innerclt.clark import (BoundaryAtomSolver, ClarkMeasure, check_first_moment,
                            check_second_moment, clark_measure, desintegrate)
from innerclt.errors import BudgetExceeded, RootBracketFailure

TWO_PI = 2 * math.pi

DEG2_HALF = BlaschkeProduct(zeros=(0.0, 0.5))
DEG3_MIXED = BlaschkeProduct(zeros=(0.0, 0.3 + 0.4j, -0.2j))
DEG2_ROTATED = BlaschkeProduct(zeros=(0.0, 0.3 + 0.4j), rotation=cmath.exp(0.9j))
Z5_ROTATED = BlaschkeProduct(zeros=(0.0,) * 5, rotation=cmath.exp(2.1j))


def near_circle_map(r):
    """Rotated degree-3 map with one zero at modulus r, so |f'| peaks near 2 / (1 - r)."""
    return BlaschkeProduct(zeros=(0.0, r * cmath.exp(0.4j), -0.2j), rotation=cmath.exp(0.7j))


def near_degree_two_map(r):
    """Rotated degree-2 map with its zero at modulus r, so |f'| peaks near 2 / (1 - r)."""
    return BlaschkeProduct(zeros=(0.0, r * cmath.exp(0.4j)), rotation=cmath.exp(0.7j))


def circle_distance(a, b):
    """|a - b| as angles, so 2 pi - tiny and 0 are tiny apart."""
    return np.abs(np.angle(np.exp(1j * (a - b))))


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


def companion_atoms(f, power, alpha_theta):
    """Reference: the companion-matrix pullback for every map, frozen as it was.

    Each level solves rot z^m prod (a_i - z) - beta prod (1 - conj(a_i) z) = 0
    for every point beta of the previous level as eigenvalues of a stack of
    companion matrices, then takes NEWTON_STEPS Newton steps in the angle.
    """
    d = f.degree
    num, den = np.ones(1, dtype=complex), np.ones(1, dtype=complex)
    for a in f.nonzero_zeros:
        num = np.convolve(num, [1.0, -a])
        den = np.convolve(den, [-np.conj(a), 1.0])
    lead = f.rotation * (-1) ** len(f.nonzero_zeros)
    num = np.append(num, np.zeros(f.origin_multiplicity))[1:]
    den = np.append(np.zeros(d - den.size), den) / lead
    theta = np.asarray([alpha_theta], dtype=float).reshape(-1, 1)
    weights = np.ones_like(theta)
    for _ in range(power):
        beta = np.exp(1j * theta)[..., None]
        companion = np.zeros(beta.shape[:-1] + (d, d), dtype=complex)
        companion[..., 0, :] = beta * den - num
        companion[..., 1:, :-1] = np.eye(d - 1)
        child = np.angle(np.linalg.eigvals(companion))
        for _ in range(clark.NEWTON_STEPS):
            z = np.exp(1j * child)
            child = child - np.angle(f._eval(z) * np.conj(beta)) / f._circle_speed(z)
        theta = child.reshape(len(theta), -1)
        weights = (weights[..., None] / f._circle_speed(np.exp(1j * child))).reshape(theta.shape)
    theta = theta % TWO_PI
    order = np.argsort(theta[0])
    return theta[0, order], weights[0, order]


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
        # 2^20000 has more digits than int-to-str conversion allows
        with pytest.raises(BudgetExceeded, match=r"degree 2\^20000 exceeds atom cap 4096"):
            BoundaryAtomSolver(DEG2_HALF, power=20_000)
        # a rotation has one atom at every power, but no more levels than d = 2
        rot = BlaschkeProduct(zeros=(0.0,), rotation=0.6 + 0.8j)
        assert len(clark_measure(rot, CirclePoint(1.0), power=12).atoms) == 1
        for power in (13, 10 ** 6):
            with pytest.raises(BudgetExceeded, match=f"power {power} exceeds the power cap 12"):
                clark_measure(rot, CirclePoint(1.0), power=power)

    # the largest power under the caps: d^power <= 4096 and power <= 12
    @pytest.mark.parametrize("f, top", [
        (BlaschkeProduct(zeros=(0.0,)), 12),
        (BlaschkeProduct(zeros=(0.0,), rotation=0.6 + 0.8j), 12),
        (monomial(2), 12), (DEG2_ROTATED, 12), (DEG3_MIXED, 7), (monomial(4), 6),
        (Z5_ROTATED, 5)])
    def test_power_cap_per_degree(self, f, top):
        mu = clark_measure(f, CirclePoint(0.3), power=top)
        assert len(mu.atoms) == f.degree ** top
        assert abs(float(np.sum(mu.weights)) - 1.0) < 1e-10
        message = (f"power {top + 1} exceeds the power cap 12" if f.degree == 1
                   else f"degree {f.degree}^{top + 1} exceeds atom cap 4096")
        with pytest.raises(BudgetExceeded, match=re.escape(message)):
            BoundaryAtomSolver(f, power=top + 1)


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
        mu = ClarkMeasure(CirclePoint(0.0), [[-5e-324, 0.25], [TWO_PI, 0.25], [7.0, 0.5]])
        assert mu.angles.tolist() == [0.0, 0.0, 7.0 % TWO_PI]

    # each map has an atom a hair below angle 0, which % 2 pi alone rounds
    # to 2 pi and so sorts last
    WRAPS = [(BlaschkeProduct(zeros=(0.0,) * 3,
                              rotation=complex(0.9999500004166653, 0.009999833334166664)),
              0.009999999999999998),
             (BlaschkeProduct(zeros=(0.0, 0.48352192825757545 + 0.12730492878940722j),
                              rotation=complex(0.9946128276123087, 0.1036596505350456)),
              2.762100412535126)]

    @pytest.mark.parametrize("f,theta", WRAPS, ids=["z3-rotated", "deg2-half-angle"])
    def test_atoms_at_the_wrap_are_canonical_and_ascending(self, f, theta):
        solved, _ = BoundaryAtomSolver(f).atoms(theta)
        for angles in (solved, clark_measure(f, CirclePoint(theta)).angles):
            assert 0.0 in angles
            assert np.all((angles >= 0.0) & (angles < TWO_PI))
            assert np.all(np.diff(angles) > 0)

    def test_rejects_ragged_atoms(self):
        with pytest.raises(ValueError):
            ClarkMeasure(CirclePoint(0.0), [1.0, 0.5])


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def light_pullback(pullback):
    """A `_pullback` whose weights sum to 0.9, so `clark_measure` must refuse them."""
    def light(self, alphas):
        angles, weights = pullback(self, alphas)
        return angles, 0.9 * weights
    return light


@pytest.mark.usefixtures("empty_clark_slot")
class TestMeasureMemo:
    """`clark_measure` keeps its last measure; the moment checks read it."""

    TRIPLES = [(DEG2_HALF, 0.7, 3), (DEG3_MIXED, 4.1, 2), (monomial(3), 2.2, 4)]
    IDS = ["deg2-half-n3", "deg3-mixed-n2", "z3-n4"]

    @pytest.mark.parametrize("f,theta,power", TRIPLES, ids=IDS)
    def test_measure_then_moments_solve_once(self, atom_solves, f, theta, power):
        alpha = CirclePoint(theta)
        clark_measure(f, alpha, power=power)  # by keyword, as clark dump passes it
        first = check_first_moment(f, alpha, power)
        second = check_second_moment(f, CirclePoint(theta), power)
        assert atom_solves == [(f, power, alpha.theta)]
        # after another triple, each check solves afresh, with the same bits
        clark_measure(DEG2_ROTATED, CirclePoint(1.0), 2)
        assert check_first_moment(f, alpha, power) == first
        clark_measure(DEG2_ROTATED, CirclePoint(1.0), 2)
        assert check_second_moment(f, alpha, power) == second
        assert len(atom_solves) == 5

    # BlaschkeProduct equality takes 0.5 + 0j and 0.5 - 0j for the same zero
    OTHER = {"alpha": (DEG2_HALF, CirclePoint(0.7 + 1e-9), 3),
             "alpha-one-ulp": (DEG2_HALF, CirclePoint(math.nextafter(0.7, 1.0)), 3),
             "f": (DEG3_MIXED, CirclePoint(0.7), 3),
             "f-signed-zero": (BlaschkeProduct(zeros=(0.0, complex(0.5, -0.0))), CirclePoint(0.7), 3),
             "power": (DEG2_HALF, CirclePoint(0.7), 2)}

    @pytest.mark.parametrize("other", OTHER.values(), ids=OTHER.keys())
    def test_another_triple_in_between_solves_again(self, atom_solves, other):
        alpha = CirclePoint(0.7)
        mu = clark_measure(DEG2_HALF, alpha, 3)
        clark_measure(*other)
        again = clark_measure(DEG2_HALF, alpha, 3)
        assert len(atom_solves) == 3
        assert again is not mu
        assert np.array_equal(bits(again.atoms), bits(mu.atoms))

    @pytest.mark.parametrize("f,theta,power", TRIPLES + [(DEG2_HALF, 1.1, 12)],
                             ids=IDS + ["deg2-half-n12"])
    def test_hit_is_the_same_read_only_measure(self, atom_solves, f, theta, power):
        mu = clark_measure(f, CirclePoint(theta), power)
        hit = clark_measure(f, CirclePoint(theta), power)
        assert hit is mu and len(atom_solves) == 1
        assert not hit.atoms.flags.writeable
        with pytest.raises(ValueError):
            hit.atoms[0, 1] = 0.5
        angles, weights = BoundaryAtomSolver(f, power).atoms(theta)
        assert np.array_equal(bits(hit.angles), bits(angles))
        assert np.array_equal(bits(hit.weights), bits(weights))

    def test_kept_measure_cannot_be_made_writeable(self, atom_solves):
        mu = clark_measure(monomial(2), CirclePoint(1.0), 2)
        before = bits(mu.atoms).copy()
        for array in (mu.atoms, mu.angles, mu.weights):
            with pytest.raises(ValueError):
                array.flags.writeable = True
        hit = clark_measure(monomial(2), CirclePoint(1.0), 2)
        assert hit is mu and len(atom_solves) == 1
        assert np.array_equal(bits(hit.atoms), before)

    def test_failed_solves_leave_the_slot_alone(self, monkeypatch, atom_solves):
        alpha = CirclePoint(0.7)
        with monkeypatch.context() as patch:
            patch.setattr(BoundaryAtomSolver, "_pullback",
                          light_pullback(BoundaryAtomSolver._pullback))
            for check in (clark_measure, check_first_moment, check_second_moment):
                with pytest.raises(RootBracketFailure, match="not 1; atom solve is suspect"):
                    check(DEG2_HALF, alpha, 3)
            assert clark._solve.cache_info().currsize == 0
        assert len(atom_solves) == 3
        mu = clark_measure(DEG2_HALF, alpha, 3)
        assert len(atom_solves) == 4
        assert abs(float(np.sum(mu.weights)) - 1.0) <= 1e-10
        # a bad power raises before any solve and keeps the stored measure
        with pytest.raises(ValueError, match="power must be >= 1"):
            clark_measure(DEG2_HALF, alpha, 0)
        with pytest.raises(BudgetExceeded):
            clark_measure(DEG2_HALF, alpha, 13)
        assert check_first_moment(DEG2_HALF, alpha, 3) <= 1e-8
        assert clark_measure(DEG2_HALF, alpha, 3) is mu
        assert len(atom_solves) == 4


@st.composite
def clark_triples(draw, max_modulus=0.9):
    """Degree 2-4 products with |a| <= max_modulus and a rotation, a power 1-3, an alpha.

    A zero is either 0 (so z^d and its closed form come up) or any modulus
    up to max_modulus, subnormals included, whose poles 1 / conj(a) lie
    past every float.
    """
    modulus = st.one_of(st.just(0.0), st.floats(0.0, max_modulus))
    zeros = [0.0] + [cmath.rect(draw(modulus), draw(st.floats(0.0, TWO_PI)))
                     for _ in range(draw(st.integers(1, 3)))]
    rotation = cmath.exp(1j * draw(st.floats(0.0, TWO_PI)))
    f = BlaschkeProduct(zeros=tuple(zeros), rotation=rotation)
    return f, CirclePoint(draw(st.floats(0.0, TWO_PI))), draw(st.integers(1, 3))


@given(clark_triples())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_random_products_solve_or_raise_typed(triple):
    f, alpha, power = triple
    try:
        mu = clark_measure(f, alpha, power)
    except (RootBracketFailure, BudgetExceeded):
        return
    assert len(mu.atoms) == f.degree ** power
    assert abs(float(np.sum(mu.weights)) - 1.0) <= 1e-10
    landing = f.boundary_orbit(np.exp(1j * mu.angles), power) - alpha.value
    assert np.max(np.abs(landing)) <= 1e-10
    assert clark_measure(f, alpha, power) is mu


@given(clark_triples(max_modulus=0.999))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_near_circle_products_land_within_round_off(triple):
    # |(f^p)'| reaches about 1e11 here, and an angle one ulp(2 pi) off
    # lands |(f^p)'| ulp(2 pi) from alpha: each atom must land within
    # 4 ulp(2 pi) / weight, as 1 / weight = |(f^p)'|
    f, alpha, power = triple
    try:
        mu = clark_measure(f, alpha, power)
    except (RootBracketFailure, BudgetExceeded):
        return
    assert abs(float(np.sum(mu.weights)) - 1.0) <= 1e-10
    landing = np.abs(f.boundary_orbit(np.exp(1j * mu.angles), power) - alpha.value)
    assert np.all(landing <= 4 * math.ulp(TWO_PI) / mu.weights)


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

    # every closed-form path, each up to the atom cap
    CLOSED_FORM_CASES = [("z2", monomial(2), 12), ("z3", monomial(3), 7),
                         ("z5-rotated", Z5_ROTATED, 5),
                         ("deg2-half", DEG2_HALF, 12), ("deg2-rotated", DEG2_ROTATED, 12)]

    @pytest.mark.parametrize("name,f,top", CLOSED_FORM_CASES,
                             ids=[c[0] for c in CLOSED_FORM_CASES])
    def test_closed_forms_match_companion_reference(self, name, f, top):
        for power in range(1, top + 1):
            solver = BoundaryAtomSolver(f, power)
            for alpha in (0.37, 4.2):
                angles, weights = solver.atoms(alpha)
                ref_angles, ref_weights = companion_atoms(f, power, alpha)
                assert np.max(circle_distance(angles, ref_angles)) <= 2e-15, power
                assert np.max(np.abs(weights / ref_weights - 1.0)) <= 4e-15, power

    @pytest.mark.parametrize("f", [monomial(3), Z5_ROTATED, DEG2_HALF, DEG2_ROTATED],
                             ids=["z3", "z5-rotated", "deg2-half", "deg2-rotated"])
    def test_closed_forms_take_no_newton_step(self, monkeypatch, f):
        # a Newton step evaluates f; the closed forms never do
        def refuse(self, z):
            raise AssertionError("BlaschkeProduct._eval called")

        with monkeypatch.context() as patch:
            patch.setattr(BlaschkeProduct, "_eval", refuse)
            angles, weights = BoundaryAtomSolver(f, 3).atoms(0.37)
            with pytest.raises(AssertionError, match="_eval called"):
                BoundaryAtomSolver(DEG3_MIXED, 3).atoms(0.37)
        assert len(angles) == f.degree ** 3
        assert abs(float(np.sum(weights)) - 1.0) <= 1e-10

    @pytest.mark.parametrize("f,top", [(DEG3_MIXED, 5), (near_circle_map(0.99), 3)],
                             ids=["deg3-mixed", "deg3-near-circle"])
    def test_companion_path_is_the_reference_bit_for_bit(self, f, top):
        for power in range(1, top + 1):
            for alpha in (0.37, 4.2):
                angles, weights = BoundaryAtomSolver(f, power).atoms(alpha)
                ref_angles, ref_weights = companion_atoms(f, power, alpha)
                assert np.array_equal(angles, ref_angles)
                assert np.array_equal(weights, ref_weights)

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
        # |f'| reaches ~2e6, so an angle error of 1e-16 moves f(zeta) by ~2e-10;
        # degree 3 starts from eigenvalues, degree 2 from the quadratic formula
        for f in (near_circle_map(1.0 - 1e-6), near_degree_two_map(1.0 - 1e-6)):
            for theta in (0.3, 2.5, 4.4):
                angles, weights = BoundaryAtomSolver(f).atoms(theta)
                landing = f.boundary_step(np.exp(1j * angles)) - cmath.exp(1j * theta)
                assert np.max(np.abs(landing)) <= 2e-10
                assert abs(float(np.sum(weights)) - 1.0) <= 1e-10
                ref_angles, _ = companion_atoms(f, 1, theta)
                assert np.max(circle_distance(angles, ref_angles)) <= 2e-15

    def test_desintegrate_matches_per_alpha_atoms(self):
        # deg3-mixed takes the companion path, deg2-half the half-angle form
        observable = lambda z: np.real(z) ** 2 + z ** 3
        for f in (DEG3_MIXED, DEG2_HALF):
            double, _ = desintegrate(f, observable, k_alpha=64, power=2)
            solver = BoundaryAtomSolver(f, 2)
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

    @pytest.mark.parametrize("k_alpha", [64.5, 64.0, math.inf, True])
    def test_rejects_a_count_that_is_not_an_integer(self, stepped, k_alpha):
        # 64.5 took 65 unevenly spaced alphas, with a residual of 1.9e-3
        with pytest.raises(ValueError, match="k_alpha must be an integer"):
            desintegrate(DEG2_HALF, lambda z: z, k_alpha=k_alpha)
        assert stepped == []

    def test_numpy_integer_count_is_that_count(self):
        observable = lambda z: np.real(z) ** 2 + z ** 3
        assert desintegrate(DEG2_HALF, observable, k_alpha=np.int64(64)) == \
            desintegrate(DEG2_HALF, observable, k_alpha=64)


class TestTaylorMoments:
    """The Clark moments of f^n are rows of `taylor_table(f, n, l)`."""

    def test_first_coefficient_is_iterate_derivative(self):
        # order 1: the one coefficient is (f^n)'(0) = f'(0)^n
        c1 = DEG2_HALF.taylor_at_zero().c1
        for power in (1, 2, 3):
            row = taylor_table(DEG2_HALF, power, 1)[1, 1:]
            assert row.shape == (1,)
            assert abs(row[0] - c1 ** power) < 1e-15

    def test_herglotz_sum_matches_atomic_moment(self):
        # int conj(z) d mu_alpha = sum_k conj(alpha)^k c_k
        alpha = CirclePoint(1.7)
        mu = clark_measure(DEG2_HALF, alpha, power=2)
        row = taylor_table(DEG2_HALF, 2, 1)[1, 1:]
        herglotz = sum(c * np.conj(alpha.value) ** k for k, c in enumerate(row, 1))
        assert abs(np.conj(herglotz) - mu.moment(1)) < 1e-8

    def test_monomial_bound_vacuous(self):
        # f'(0) = 0, so the bound is 0: no power of (z^2)^3 = z^8 has a z^1 term
        assert monomial(2).taylor_at_zero().c1 == 0
        assert not np.any(taylor_table(monomial(2), 3, 1)[1, 1:])

    def test_bound_eventually_holds(self):
        # max_k |[z^order] (f^power)^k| <= |f'(0)|^(power/2) from an onset
        # power on, which grows with the order
        def holds(power, order):
            row = taylor_table(DEG2_HALF, power, order)[order, 1:]
            bound = abs(DEG2_HALF.taylor_at_zero().c1) ** (power / 2.0)
            return float(np.max(np.abs(row))) <= bound + 1e-12

        assert all(holds(power, 1) for power in range(1, 8))
        assert not holds(2, 2) and all(holds(power, 2) for power in range(3, 8))
        assert not holds(3, 3) and all(holds(power, 3) for power in range(4, 8))

    # deg2-half at powers 11 and 12 and a rotated complex-zero map at 12:
    # circle quadrature of these moments does not converge on its
    # 2^18-point grid, the Taylor table has no such limit
    @pytest.mark.parametrize("f, power", [
        (DEG2_HALF, 11), (DEG2_HALF, 12),
        (BlaschkeProduct(zeros=(0.0, 0.3 + 0.4j), rotation=cmath.exp(0.9j)), 12)])
    def test_table_moments_match_atoms_at_high_power(self, f, power):
        for theta in (0.4, 2.9):
            alpha = CirclePoint(theta)
            mu = clark_measure(f, alpha, power)
            for ell in (1, 2, 3):
                # int z^ell d mu_alpha = sum_k alpha^k conj(c_k)
                row = taylor_table(f, power, ell)[ell, 1:]
                target = np.sum(np.conj(row) * alpha.value ** np.arange(1, ell + 1))
                assert abs(mu.moment(ell) - target) < 1e-12, ell

