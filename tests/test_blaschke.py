"""Blaschke product evaluation, Taylor data and boundary dynamics."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerclt import clt
from innerclt.blaschke import (BlaschkeProduct, CirclePoint, fit_size_bound_exponent,
                               iterate_derivative_on_circle, jet_of_iterate,
                               monomial)
from innerclt.quadrature import uniform_angles

DEG2_HALF = BlaschkeProduct(zeros=(0.0, 0.5))
DEG3_MIXED = BlaschkeProduct(zeros=(0.0, 0.3 + 0.4j, -0.2j),
                             rotation=cmath.exp(0.7j))


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
        f = DEG2_HALF

        def fn(z):
            out = z
            for _ in range(n):
                out = f(out)
            return out

        c0, c1, c2 = dft_taylor(fn, 2)
        jet = jet_of_iterate(f, n)
        assert abs(jet.c1 - c1) < 1e-10
        assert abs(jet.c2 - c2) < 1e-10

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
    """Iterating callers validate once, then step without validation.

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
            expected = expected * f.derivative(cur)
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
                expected = expected * f.derivative(cur)
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
        "accumulate": lambda f, z: clt._accumulate(f, np.ones(3, dtype=complex), z),
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


class TestCirclePoint:
    def test_canonical_angle(self):
        assert abs(CirclePoint(-1.0).theta - (2 * math.pi - 1.0)) < 1e-12

    def test_from_complex_roundtrip(self):
        p = CirclePoint(2.5)
        assert abs(CirclePoint.from_complex(p.value).theta - 2.5) < 1e-12

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            CirclePoint.from_complex(0.0)


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
