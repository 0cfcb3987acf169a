"""Blaschke product evaluation, Taylor data and boundary dynamics."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerclt import clt
from innerclt.blaschke import (BlaschkeProduct, CirclePoint, fit_size_bound_exponent,
                               iterate_derivative_on_circle, monomial, taylor_table)
from innerclt.clark import clark_measure
from innerclt.correlations import (BlockSum, CorrelationSpec, block_product_factorization,
                                   four_factor, higher_correlation, pair_correlation)
from innerclt.quadrature import check_invariance, circle_grid, uniform_angles
from innerclt.variance import CoefficientSequence, l2_identity_check

DEG2_HALF = BlaschkeProduct(zeros=(0.0, 0.5))
DEG3_MIXED = BlaschkeProduct(zeros=(0.0, 0.3 + 0.4j, -0.2j),
                             rotation=cmath.exp(0.7j))


def iterate(f, n, z):
    """f^n(z) inside the disc, by n plain evaluations."""
    for _ in range(n):
        z = f(z)
    return z


def dft_taylor(f, order, radius=0.5, points=256):
    """Taylor coefficients of f at 0 via the Cauchy integral on |z| = radius."""
    z = radius * np.exp(2j * np.pi * np.arange(points) / points)
    vals = f(z)
    coeffs = np.fft.fft(vals) / points
    return [coeffs[k] / radius ** k for k in range(order + 1)]


class TestConstruction:
    def test_requires_zero_at_origin(self):
        with pytest.raises(ValueError):
            BlaschkeProduct(zeros=(0.5,))

    def test_rejects_zero_on_circle(self):
        with pytest.raises(ValueError):
            BlaschkeProduct(zeros=(0.0, 1.0))

    def test_rejects_non_unimodular_rotation(self):
        with pytest.raises(ValueError):
            BlaschkeProduct(zeros=(0.0,), rotation=0.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BlaschkeProduct(zeros=())

    def test_degree_counts_all_zeros(self):
        assert DEG3_MIXED.degree == 3
        assert DEG3_MIXED.origin_multiplicity == 1
        assert monomial(4).origin_multiplicity == 4

    def test_not_rotation_flag(self):
        assert not BlaschkeProduct(zeros=(0.0,)).not_rotation
        assert DEG2_HALF.not_rotation


class TestEvaluation:
    def test_monomial_values(self):
        f = monomial(2)
        z = np.exp(1j * np.linspace(0, 6, 11))
        assert np.allclose(f(z), z ** 2)

    def test_fixes_origin(self):
        assert DEG3_MIXED(0.0) == 0.0

    def test_unimodular_on_circle(self):
        z = np.exp(1j * np.linspace(0, 6.2, 200))
        assert np.allclose(np.abs(DEG3_MIXED(z)), 1.0, atol=1e-13)

    def test_factor_formula_by_hand(self):
        # single point, explicit product of factors
        w = 0.3 - 0.1j
        a = 0.5
        expected = w * (a - w) / (1 - a * w)
        assert abs(DEG2_HALF(w) - expected) < 1e-15

    def test_rejects_point_outside_disc(self):
        with pytest.raises(ValueError):
            DEG2_HALF(1.5)

    def test_rejects_nonfinite_point(self):
        with pytest.raises(ValueError):
            DEG2_HALF(complex("nan"))

    @given(st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=50, deadline=None)
    def test_maps_disc_into_disc(self, r, t):
        w = r * cmath.exp(1j * t)
        assert abs(DEG3_MIXED(w)) <= 1.0 + 1e-12


class TestDerivativeAndJet:
    @pytest.mark.parametrize("f", [DEG2_HALF, DEG3_MIXED, monomial(3)])
    def test_derivative_against_finite_differences(self, f):
        h = 1e-6
        for w in (0.2 + 0.1j, -0.4j, 0.6):
            fd = (f(w + h) - f(w - h)) / (2 * h)
            assert abs(f.derivative(w) - fd) < 1e-7

    @pytest.mark.parametrize("f", [DEG2_HALF, DEG3_MIXED, monomial(2),
                                   BlaschkeProduct(zeros=(0.0, 0.0, 0.5))])
    def test_taylor_jet_against_cauchy_integral(self, f):
        c0, c1, c2 = dft_taylor(f, 2)
        jet = f.taylor_at_zero()
        assert abs(c0) < 1e-10
        assert abs(jet.c1 - c1) < 1e-10
        assert abs(jet.c2 - c2) < 1e-10

    def test_deg2_half_jet_values(self):
        jet = DEG2_HALF.taylor_at_zero()
        # f(z) = z (0.5 - z)/(1 - 0.5 z) = 0.5 z - 0.75 z^2 + O(z^3)
        assert abs(jet.c1 - 0.5) < 1e-15
        assert abs(jet.c2 + 0.75) < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_iterate_jet_against_cauchy_integral(self, n):
        c0, c1, c2 = dft_taylor(lambda z: iterate(DEG2_HALF, n, z), 2)
        table = taylor_table(DEG2_HALF, n, 2)
        assert abs(table[1, 1] - c1) < 1e-10
        assert abs(table[2, 1] - c2) < 1e-10

    @pytest.mark.parametrize("f", [monomial(2), DEG2_HALF, DEG3_MIXED,
                                   BlaschkeProduct(zeros=(0.0, 0.0, 0.4 + 0.3j),
                                                   rotation=cmath.exp(1.1j))])
    def test_circle_speed_is_poisson_sum_of_derivative(self, f):
        z = np.exp(1j * uniform_angles(5, 1000))
        expected = np.abs(f.derivative(z))
        assert np.all(np.abs(f._circle_speed(z) - expected) <= 1e-13 * expected)

    def test_iterate_derivative_chain_rule(self):
        f = DEG2_HALF
        h = 1e-6
        theta = 0.9
        # d/dtheta f^3(e^{i theta}) = i e^{i theta} (f^3)'(e^{i theta})
        lo = f.boundary_orbit(np.exp(1j * (theta - h)), 3)
        hi = f.boundary_orbit(np.exp(1j * (theta + h)), 3)
        fd = (hi - lo) / (2 * h)
        deriv = iterate_derivative_on_circle(f, np.exp(1j * theta), 3)
        assert abs(complex(fd) - 1j * cmath.exp(1j * theta) * complex(deriv)) < 1e-6


@st.composite
def blaschke_products(draw):
    """Up to three nonzero zeros with |a| <= 0.9, sometimes a rotation."""
    zeros = [0.0] * draw(st.integers(1, 2))
    for _ in range(draw(st.integers(0, 3))):
        zeros.append(cmath.rect(draw(st.floats(0.05, 0.9)), draw(st.floats(0.0, 2 * math.pi))))
    turn = draw(st.one_of(st.just(0.0), st.floats(0.0, 2 * math.pi)))
    return BlaschkeProduct(zeros=tuple(zeros), rotation=cmath.exp(1j * turn))


class TestTaylorTable:
    """C[k, j] = [z^k] (f^n)^j, the Taylor data of iterates and Clark moments."""

    @given(blaschke_products(), st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_cauchy_integral_of_iterate_powers(self, f, n, order):
        table = taylor_table(f, n, order)
        assert table.shape == (order + 1, order + 1)
        for j in range(order + 1):
            column = dft_taylor(lambda z: iterate(f, n, z) ** j, order)
            assert np.allclose(table[:, j], column, rtol=0, atol=1e-12), j

    @given(blaschke_products(), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_table_of_composition_is_product(self, f, m, n, order):
        product = taylor_table(f, m, order) @ taylor_table(f, n, order)
        assert np.allclose(taylor_table(f, m + n, order), product, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("f", [monomial(2), DEG2_HALF, DEG3_MIXED,
                                   BlaschkeProduct(zeros=(0.0, 0.0, 0.5))])
    def test_jet_is_first_column(self, f):
        jet = f.taylor_at_zero()
        table = taylor_table(f, 1, 2)
        assert np.allclose([jet.c1, jet.c2], table[1:, 1], rtol=0, atol=1e-15)

    def test_rejects_negative_power_or_order(self):
        with pytest.raises(ValueError):
            taylor_table(DEG2_HALF, -1, 2)
        with pytest.raises(ValueError):
            taylor_table(DEG2_HALF, 2, -1)


class TestBoundaryDynamics:
    def test_angle_doubling(self):
        p = CirclePoint(0.7)
        q = monomial(2).iterate_boundary(p, 3)
        assert abs(q.theta - (0.7 * 8) % (2 * math.pi)) < 1e-12

    def test_orbit_stays_on_circle(self):
        z = np.exp(1j * np.linspace(0.1, 6.0, 64))
        out = DEG3_MIXED.boundary_orbit(z, 10)
        assert np.allclose(np.abs(out), 1.0, atol=1e-12)

    def test_iterates_dict_consistent(self):
        z = np.exp(1j * np.array([0.3, 1.1]))
        its = DEG2_HALF.boundary_iterates(z, 5)
        assert set(its) == {1, 2, 3, 4, 5}
        assert np.allclose(its[5], DEG2_HALF.boundary_orbit(z, 5))

    def test_iteration_cap(self):
        with pytest.raises(ValueError):
            DEG2_HALF.iterate_boundary(CirclePoint(0.0), 100)


class TestOrbitKernel:
    """Public iterating callers validate once, then step without validation;
    the package's own circle points are not validated at all.

    Their output must equal, bit for bit, a loop of public boundary_step
    calls, which validate at every step.
    """

    MAPS = [DEG2_HALF, monomial(3), DEG3_MIXED,
            BlaschkeProduct(zeros=(0.0, 0.0, 0.6j, -0.5 + 0.1j), rotation=cmath.exp(-1.3j))]
    STEPS = 7

    @staticmethod
    def points(size):
        return np.exp(1j * uniform_angles(2024, size))

    def reference_orbit(self, f, z):
        orbit = [z]
        for _ in range(self.STEPS):
            orbit.append(f.boundary_step(orbit[-1]))
        return orbit

    def test_orbit_yields_z_first(self):
        z = self.points(16)
        assert next(DEG2_HALF.orbit(z, self.STEPS)) is z

    @pytest.mark.parametrize("size", [1000, 2 ** 15])
    @pytest.mark.parametrize("f", MAPS)
    def test_orbit_and_iterates_match_public_steps(self, f, size):
        z = self.points(size)
        ref = self.reference_orbit(f, z)
        walked = list(f.orbit(z, self.STEPS))
        assert len(walked) == self.STEPS + 1
        assert all(np.array_equal(w, r) for w, r in zip(walked, ref))
        assert np.array_equal(f.boundary_orbit(z, self.STEPS), ref[-1])
        its = f.boundary_iterates(z, self.STEPS)
        assert all(np.array_equal(its[n], ref[n]) for n in range(1, self.STEPS + 1))

    @pytest.mark.parametrize("size", [1000, 2 ** 15])
    @pytest.mark.parametrize("f", MAPS)
    def test_iterate_derivative_matches_public_steps(self, f, size):
        z = self.points(size)
        ref = self.reference_orbit(f, z)
        expected = np.ones_like(z)
        for cur in ref[:-1]:
            # the fresh factor on the left, so the product's operand order
            # does not hinge on numpy reusing a temporary in place
            expected = f.derivative(cur) * expected
        assert np.array_equal(iterate_derivative_on_circle(f, z, self.STEPS), expected)

    @pytest.mark.parametrize("size", [1000, 2 ** 15])
    @pytest.mark.parametrize("f", MAPS)
    def test_accumulate_matches_public_steps(self, f, size):
        z = self.points(size)
        ref = self.reference_orbit(f, z)
        coeffs = np.array([1.0, -0.5 + 0.25j, 0.3j, 2.0, -1.0])
        for start in (1, 3):
            expected = np.zeros_like(z)
            for c, cur in zip(coeffs, ref[start:]):
                expected = expected + c * cur
            assert np.array_equal(clt._accumulate(f, coeffs, z, start_power=start), expected)

    @pytest.mark.parametrize("f", [DEG2_HALF, DEG3_MIXED])
    def test_step_bits_do_not_depend_on_batch_length(self, f):
        # numpy reuses a temporary operand of 256 KiB (2^14 points) or more
        # in place, and a complex product is not bitwise commutative, so a
        # kernel whose operand order hinges on that reuse would step a point
        # differently in a 65 536-point call than in its slices.  Slices of
        # 1 and 5 cover the first 2048 points, which keeps the test fast and
        # still meets every position modulo any SIMD width.
        z = self.points(2 ** 16)
        whole = f.boundary_step(z)
        for size in (1, 5, 8192, 16384):
            stop = len(z) if size > 5 else 2048
            sliced = np.concatenate([f.boundary_step(z[lo:lo + size])
                                     for lo in range(0, stop, size)])
            assert np.array_equal(sliced, whole[:len(sliced)]), size

    @pytest.mark.parametrize("f", [DEG2_HALF, DEG3_MIXED])
    def test_iterate_derivative_bits_do_not_depend_on_batch_length(self, f):
        # the 2^15-point quadrature grid (512 KiB, where numpy reuses
        # temporaries in place) against its 8192-point slices
        z = circle_grid(2 ** 15)
        whole = iterate_derivative_on_circle(f, z, self.STEPS)
        sliced = np.concatenate([iterate_derivative_on_circle(f, z[lo:lo + 8192], self.STEPS)
                                 for lo in range(0, len(z), 8192)])
        assert np.array_equal(sliced, whole)

    @pytest.mark.parametrize("f", MAPS)
    def test_scalar_orbit_steps_in_python_complex(self, f):
        # a 0-d point steps as complex(f(z)) / np.abs(f(z)), Python complex division
        for z in self.points(20):
            ref = [complex(z)]
            for _ in range(self.STEPS):
                w = complex(f(ref[-1]))
                ref.append(w / np.abs(w))
            z = np.asarray(z)
            assert list(f.orbit(z, self.STEPS)) == ref
            assert f.boundary_orbit(z, self.STEPS) == ref[-1]
            assert f.boundary_iterates(z, self.STEPS)[self.STEPS] == ref[-1]
            expected = np.ones_like(z)
            for cur in ref[:-1]:
                expected = f.derivative(cur) * expected
            assert iterate_derivative_on_circle(f, z, self.STEPS) == expected
            coeffs = np.array([1.0, 0.5j])
            assert clt._accumulate(f, coeffs, z) == ref[1] + coeffs[1] * ref[2]

    NEAR_CIRCLE = BlaschkeProduct(zeros=(0.0, 1.0 - 5e-10))
    POLE = 1.0 / (1.0 - 5e-10)
    ENTRY_POINTS = {
        "call": lambda f, z: f(z),
        "derivative": lambda f, z: f.derivative(z),
        "boundary_step": lambda f, z: f.boundary_step(z),
        # not iterated: orbit must raise at the call, with no step to take
        "orbit": lambda f, z: f.orbit(z, 0),
        "boundary_orbit": lambda f, z: f.boundary_orbit(z, 3),
        "boundary_iterates": lambda f, z: f.boundary_iterates(z, 3),
        "iterate_derivative": lambda f, z: iterate_derivative_on_circle(f, z, 3),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("bad, match", [(complex("nan"), "non-finite"),
                                            (1.0 + 2e-9, "outside the closed disc"),
                                            (POLE + 1e-13, "too close to pole")])
    def test_entry_points_reject_bad_points(self, entry, bad, match):
        # the bad point sits among valid ones, so every point is checked
        z = np.append(self.points(16), bad)
        with pytest.raises(ValueError, match=match):
            self.ENTRY_POINTS[entry](self.NEAR_CIRCLE, z)

    # 1 / conj(a) overflows (or is inf times 0) for these zeros: their
    # poles lie past every float, so no point needs guarding from them
    SUBNORMAL_ZEROS = [1e-320 + 1e-320j, 5e-324, 1e-310j]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a", SUBNORMAL_ZEROS, ids=repr)
    def test_subnormal_zero_raises_no_warning(self, a):
        f = BlaschkeProduct(zeros=(0.0, a))
        # f = -z^2 up to the subnormal zero
        ref = BlaschkeProduct(zeros=(0.0, 0.0), rotation=-1.0)
        z = self.points(16)
        assert np.allclose(f(z), ref(z), rtol=0.0, atol=1e-15)
        assert f(1.0) == pytest.approx(-1.0, abs=1e-15)
        assert np.allclose(f.boundary_orbit(z, 3), ref.boundary_orbit(z, 3),
                           rtol=0.0, atol=1e-14)
        alpha = CirclePoint(1.0)
        mu = clark_measure(f, alpha, 3)
        assert np.allclose(mu.atoms, clark_measure(ref, alpha, 3).atoms,
                           rtol=0.0, atol=1e-15)

    # every caller that steps only the package's own circle points
    PACKAGE_CALLERS = {
        "pair_correlation": lambda: pair_correlation(DEG2_HALF, 1, 4),
        "four_factor": lambda: four_factor(DEG2_HALF, (1, -1, 1, -1), (1, 2, 4, 5)),
        "higher_correlation": lambda: higher_correlation(
            DEG2_HALF, CorrelationSpec((1, -1, 1), (1, 3, 5))),
        "block_product_factorization": lambda: block_product_factorization(
            DEG2_HALF, [BlockSum.ones((1, 2)), BlockSum.ones((4, 5))]),
        "check_invariance": lambda: check_invariance(DEG3_MIXED, lambda z: np.real(z) ** 3),
        "l2_identity_check": lambda: l2_identity_check(
            DEG2_HALF, CoefficientSequence.ones(6), 6),
        "simulate": lambda: clt.simulate(DEG2_HALF, CoefficientSequence.ones(6), 6, 1000, 3),
        "simulate_tail": lambda: clt.simulate(
            monomial(2), CoefficientSequence.geometric(0.5, 24), 6, 1000, 3, mode="tail"),
        "sample_T": lambda: clt.sample_T(DEG2_HALF, CoefficientSequence.ones(6), 6,
                                         CirclePoint(1.25)),
    }

    @pytest.mark.parametrize("caller", sorted(PACKAGE_CALLERS))
    def test_package_points_are_not_revalidated(self, monkeypatch, stepped, caller):
        validated = []
        monkeypatch.setattr(BlaschkeProduct, "_validate_points",
                            lambda self, w: validated.append(np.size(w)))
        self.PACKAGE_CALLERS[caller]()
        assert stepped and validated == []


class TestLowOriginMultiplicity:
    """_eval and boundary_step at a simple zero at the origin skip np.power
    (z * rot for z ** 1 * rot).  Away from an exact zero they equal the power
    formula bit for bit, here and at a double zero, where ** stays."""

    MAPS = [DEG2_HALF, DEG3_MIXED,
            BlaschkeProduct(zeros=(0.0, 0.0, 0.4 - 0.3j), rotation=cmath.exp(-1.1j)),
            monomial(2)]

    @staticmethod
    def power_eval(f, arr):
        out = arr ** f.origin_multiplicity * f.rotation
        for a, conj_a in f._factors:
            out = (a - arr) * out / (1.0 - conj_a * arr)
        return out

    @staticmethod
    def points():
        theta = uniform_angles(31, 4096)
        radius = np.sqrt(uniform_angles(32, 4096) / (2 * math.pi))
        # +-1 and +-i and other points on the axes, with either signed zero
        axes = [(x, y) for x in (0.0, -0.0) for y in (1.0, -1.0, 0.25, -1e-150)]
        axes = [complex(x, y) for x, y in axes] + [complex(y, x) for x, y in axes]
        return np.concatenate([np.exp(1j * theta), radius * np.exp(1j * theta),
                               np.array(axes)])

    @staticmethod
    def bits(x):
        return np.asarray(x, dtype=complex).view(np.uint64)

    @pytest.mark.parametrize("f", MAPS)
    def test_equal_power_formulas_bit_for_bit(self, f):
        assert f.origin_multiplicity in (1, 2)
        z = self.points()
        assert np.array_equal(self.bits(f._eval(z)), self.bits(self.power_eval(f, z)))
        ref = self.power_eval(f, z)
        assert np.array_equal(self.bits(f.boundary_step(z)), self.bits(ref / np.abs(ref)))

    # z^2, z^3, deg2-half and a rotated degree-3 map
    STEP_MAPS = [monomial(2), monomial(3), DEG2_HALF, DEG3_MIXED]

    @staticmethod
    def axis_image_points(f):
        """+-1 and +-i with either signed zero, and points whose image under
        f has an exact zero component: the origin and the nonzero zeros."""
        signed = [complex(x, y) for x in (0.0, -0.0) for y in (1.0, -1.0)]
        signed += [complex(y, x) for x, y in ((z.real, z.imag) for z in signed)]
        zeros = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
        return np.array(signed + zeros + list(f.nonzero_zeros))

    @pytest.mark.parametrize("f", STEP_MAPS)
    def test_step_equals_complex_division_bit_for_bit(self, f):
        # _step multiplies by 1 / |f(z)| where numpy's complex division would
        # give the same bits, and divides a block with a zero component
        circle = np.exp(1j * uniform_angles(33, 8192))
        special = self.axis_image_points(f)
        images = f._eval(special)
        assert np.any(images.real == 0) and not np.any(f._eval(circle).view(np.float64) == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            blocks = [circle, special, np.concatenate([circle, special])]
            blocks += [special[i:i + 1] for i in range(len(special))]
            for z in blocks:
                out = f._eval(z)
                assert np.array_equal(self.bits(f._step(z)), self.bits(out / np.abs(out)))

    @pytest.mark.parametrize("f", MAPS)
    def test_exact_zero_values(self, f):
        zeros = np.array([complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)])
        assert np.all(f._eval(zeros) == 0)
        assert f(0.0) == 0


class TestCirclePoint:
    def test_canonical_angle(self):
        assert abs(CirclePoint(-1.0).theta - (2 * math.pi - 1.0)) < 1e-12

    def test_from_complex_roundtrip(self):
        p = CirclePoint(2.5)
        assert abs(CirclePoint.from_complex(p.value).theta - 2.5) < 1e-12

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            CirclePoint.from_complex(0.0)

    @pytest.mark.parametrize("theta", [-1e-17, -5e-324])
    def test_tiny_negative_angle_is_zero(self, theta):
        # theta % 2pi rounds to 2pi itself, outside [0, 2pi)
        assert CirclePoint(theta).theta == 0.0


class TestSerialization:
    @pytest.mark.parametrize("f", [DEG2_HALF, DEG3_MIXED, monomial(3)])
    def test_json_roundtrip(self, f):
        g = BlaschkeProduct.from_json(f.to_json())
        assert g.zeros == f.zeros
        assert abs(g.rotation - f.rotation) < 1e-15

    def test_rotation_defaults_to_one(self):
        g = BlaschkeProduct.from_dict({"zeros": [[0.0, 0.0], [0.5, 0.0]]})
        assert g.rotation == 1.0 + 0j


def test_size_bound_exponent_is_small():
    assert fit_size_bound_exponent(DEG2_HALF) <= 4


def test_size_bound_requires_contracting_derivative():
    with pytest.raises(ValueError):
        fit_size_bound_exponent(monomial(2))
