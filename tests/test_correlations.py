"""Correlation integrals: pair identity, factorization, four-factor shapes,
higher-order decay and the gap-weighted exponent."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerclt.blaschke import BlaschkeProduct, monomial
from innerclt.correlations import (BlockSum, CorrelationSpec, _exact_signed_integral,
                                   _signed_integral, _signed_integrand,
                                   block_product_factorization, decay_check,
                                   four_factor, higher_correlation,
                                   pair_correlation, phi_exponent)
from innerclt.errors import (BudgetExceeded, NonConvergence, SeparationViolation,
                             ShapeMismatch)
from innerclt.quadrature import DEFAULT_MAX_GRID, circle_grid, integrate

DEG2_HALF = BlaschkeProduct(zeros=(0.0, 0.5))
DEG2_COMPLEX = BlaschkeProduct(zeros=(0.0, 0.3 + 0.3j))
DEG3_MIXED = BlaschkeProduct(zeros=(0.0, 0.3 + 0.4j, -0.2j))
DEG3_ROTATED = BlaschkeProduct(zeros=(0.0, 0.3 + 0.4j, -0.5j), rotation=np.exp(0.7j))
PARITY_TOL = 1e-14


def direct_signed_integral(f, signs, powers, tol):
    """Reference: the earlier unshifted evaluation, frozen as it was.

    Integrates prod (f^{n_j})^{+-} itself, on a starting grid sized from
    the total degree sum d^{n_j}.
    """
    n_max = max(powers)

    def g(z):
        its = f.boundary_iterates(z, n_max)
        out = np.ones_like(z)
        for s, n in zip(signs, powers):
            out = out * (its[n] if s > 0 else np.conj(its[n]))
        return out

    return integrate(g, tol=tol, degree=sum(f.degree ** n for n in powers)).value


def direct_factorization(f, blocks, tol=1e-11):
    """Reference: the earlier unshifted (lhs, rhs) of the factorization."""
    all_powers = [n for b in blocks for n in b.block]
    n_max = max(all_powers)

    def xi(its, b):
        out = 0j
        for n, c in zip(b.block, b.coefficients):
            out = out + c * its[n]
        return out

    def product_integrand(z):
        its = f.boundary_iterates(z, n_max)
        out = np.ones_like(z, dtype=float)
        for b in blocks:
            out = out * np.abs(xi(its, b)) ** 2
        return out

    degree = sum(f.degree ** n for n in all_powers) \
        + sum(f.degree ** max(b.block) for b in blocks)
    lhs = integrate(product_integrand, tol=tol, degree=degree).value
    rhs = 1.0 + 0j
    for b in blocks:
        rhs *= integrate(
            lambda z, b=b: np.abs(xi(f.boundary_iterates(z, max(b.block)), b)) ** 2,
            tol=tol, degree=2 * f.degree ** max(b.block)).value
    return lhs, rhs


def criterion_4_blocks():
    """The random block families of acceptance criterion 4 (seed 44)."""
    rng = np.random.default_rng(44)
    families = []
    for trial in range(20):
        blocks, start = [], 1
        for _ in range(2 + trial % 2):
            size = int(rng.integers(1, 3))
            idx = tuple(range(start, start + size))
            coeffs = tuple(rng.standard_normal(size) + 1j * rng.standard_normal(size))
            blocks.append(BlockSum(idx, coeffs))
            start += size + int(rng.integers(0, 2))
        families.append(blocks)
    return families


def canonical(factors):
    """(signs, powers) of (sign, power) factors, sorted and shifted to start at 0."""
    factors = sorted(factors, key=lambda sp: (sp[1], sp[0]))
    return (tuple(s for s, _ in factors),
            tuple(n - factors[0][1] for _, n in factors))


def criterion_integrals():
    """Every signed integral that acceptance criteria 2, 4, 5 and 6 evaluate.

    Criterion 4's lhs is a sum of such integrals: a_n conj(a_m) f^n
    conj(f^m) for each pair (n, m) of each block, multiplied across blocks.
    """
    out = {canonical([(-1, k), (1, j)]) for k in range(1, 6) for j in range(k + 1, 7)}
    for blocks in criterion_4_blocks() + [[BlockSum.ones((1, 2)), BlockSum.ones((3, 4))]]:
        pairs = [list(itertools.product(b.block, b.block)) for b in blocks]
        for choice in itertools.product(*pairs):
            out.add(canonical([f for n, m in choice for f in ((1, n), (-1, m))]))
    rng = np.random.default_rng(55)
    for _ in range(50):
        n = np.sort(rng.choice(np.arange(1, 9), size=4, replace=False))
        e1, e3 = int(rng.choice([-1, 1])), int(rng.choice([-1, 1]))
        out.add(canonical(zip((e1, -e1, e3, e3), (int(v) for v in n))))
    out.update(canonical(zip((1, -1, 1, -1), n))
               for n in itertools.combinations(range(1, 11), 4))
    out.update(canonical(zip(((-1) ** j for j in range(k)), range(1, 2 * k, 2)))
               for k in range(2, 7))
    rng = np.random.default_rng(66)
    for _ in range(12):
        k = int(rng.integers(2, 6))
        indices = np.cumsum(np.concatenate([[1], rng.integers(2, 4, size=k - 1)]))
        if indices[-1] > 11:
            indices = np.maximum(indices - (indices[-1] - 11), 1)
        if np.any(np.diff(indices) < 2):
            continue  # before the signs are drawn, as in criterion 6
        signs = tuple(int(s) for s in rng.choice([-1, 1], size=k))
        out.add(canonical(zip(signs, (int(v) for v in indices))))
    return sorted(out)


class TestCorrelationSpec:
    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError):
            CorrelationSpec((1, -1), (3, 2))

    def test_rejects_bad_signs(self):
        with pytest.raises(ValueError):
            CorrelationSpec((1, 2), (1, 2))

    def test_gap_properties(self):
        spec = CorrelationSpec((1, -1, 1), (1, 4, 6))
        assert spec.k == 3
        assert spec.gaps == (3, 2)
        assert spec.min_gap == 2


class TestPairCorrelation:
    def test_monomial_vanishes(self):
        pc = pair_correlation(monomial(2), 1, 3)
        assert abs(pc.value) < 1e-12

    @pytest.mark.parametrize("f", [DEG2_HALF, DEG2_COMPLEX])
    def test_full_sweep(self, f):
        lam = f.taylor_at_zero().c1
        for k in range(1, 6):
            for j in range(k + 1, 7):
                pc = pair_correlation(f, k, j)
                assert pc.residual < 1e-9, (k, j, pc.residual)
                assert abs(pc.target - lam ** (j - k)) < 1e-15

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            pair_correlation(DEG2_HALF, 3, 2)


class TestFactorization:
    def test_hand_value_for_squared_map(self):
        res = block_product_factorization(
            monomial(2), [BlockSum.ones((1, 2)), BlockSum.ones((3, 4))])
        # |z^2 + z^4|^2 |z^8 + z^16|^2 expands into cosines with mean 4
        assert abs(res.lhs - 4.0) < 1e-10
        assert res.residual < 1e-10

    def test_single_block_trivial(self):
        res = block_product_factorization(DEG2_HALF, [BlockSum.ones((1, 2, 3))])
        assert res.residual < 1e-12

    def test_interleaved_blocks_rejected(self):
        with pytest.raises(SeparationViolation):
            block_product_factorization(
                DEG2_HALF, [BlockSum.ones((1, 3)), BlockSum.ones((2, 5))])

    def test_random_separated_blocks(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            cut = int(rng.integers(2, 4))
            first = tuple(range(1, cut + 1))
            second = tuple(range(cut + 1, cut + 1 + int(rng.integers(1, 3))))
            coeffs1 = rng.standard_normal(len(first)) + 1j * rng.standard_normal(len(first))
            coeffs2 = rng.standard_normal(len(second)) + 1j * rng.standard_normal(len(second))
            res = block_product_factorization(
                DEG2_HALF, [BlockSum(first, tuple(coeffs1)),
                            BlockSum(second, tuple(coeffs2))])
            assert res.residual < 1e-8

    def test_separated_pair_products_factor(self):
        # int f^{n1} conj(f^{j1}) f^{n2} conj(f^{j2}) dm splits into pair
        # integrals when {n1,j1} precedes {n2,j2}
        f = DEG2_HALF
        for (n1, j1, n2, j2) in [(1, 2, 4, 6), (2, 3, 5, 7), (1, 3, 4, 5)]:
            def g(z, p=(n1, j1, n2, j2)):
                its = f.boundary_iterates(z, max(p))
                return its[p[0]] * np.conj(its[p[1]]) * its[p[2]] * np.conj(its[p[3]])
            lhs = integrate(g, tol=1e-11, degree=512).value
            exact = _exact_signed_integral(f, (1, -1, 1, -1), (n1, j1, n2, j2))
            rhs = (_exact_signed_integral(f, (1, -1), (n1, j1))
                   * _exact_signed_integral(f, (1, -1), (n2, j2)))
            assert abs(exact - rhs) <= 1e-16
            assert abs(lhs - rhs) < 1e-8


class TestFourFactor:
    def test_shape_one_monomial_hand_case(self):
        res = four_factor(monomial(2), (1, -1, 1, 1), (1, 2, 3, 4))
        assert res.shape == "I"
        assert abs(res.value) < 1e-12

    def test_shape_one_random_quadruples(self):
        rng = np.random.default_rng(17)
        count = 0
        while count < 50:
            n = np.sort(rng.choice(np.arange(1, 9), size=4, replace=False))
            e1 = int(rng.choice([-1, 1]))
            e3 = int(rng.choice([-1, 1]))
            res = four_factor(DEG2_HALF, (e1, -e1, e3, e3), tuple(int(v) for v in n))
            assert res.shape == "I"
            assert abs(res.value) < 1e-8, (n, e1, e3, abs(res.value))
            count += 1

    def test_shape_four_alternating_exactness(self):
        for n in [(1, 2, 3, 4), (1, 3, 4, 7), (2, 4, 6, 9), (1, 2, 8, 10)]:
            res = four_factor(DEG2_HALF, (1, -1, 1, -1), n)
            assert res.shape == "IV"
            assert res.residual < 1e-8, (n, res.residual)

    def test_shape_four_hand_value(self):
        res = four_factor(DEG2_HALF, (1, -1, 1, -1), (1, 2, 3, 4))
        assert abs(abs(res.value) - 0.25) < 1e-9

    @pytest.mark.parametrize("shape, signs, indices", [
        ("I", (1, -1, 1, 1), (1, 2, 4, 5)), ("II", (1, 1, 1, -1), (1, 2, 2, 5)),
        ("III", (1, 1, -1, 1), (1, 1, 2, 3)), ("III", (1, 1, -1, -1), (2, 2, 5, 6)),
        ("IV", (1, -1, 1, -1), (1, 2, 3, 4)), ("IV", (1, 1, -1, -1), (1, 2, 3, 4))])
    def test_every_shape_has_an_exact_target(self, shape, signs, indices):
        res = four_factor(DEG2_HALF, signs, indices)
        assert res.shape == shape
        assert res.target == _exact_signed_integral(DEG2_HALF, signs, indices)
        assert res.residual == abs(res.value - res.target) <= 1e-11

    def test_shape_two_bound(self):
        a = 0.5
        res = four_factor(DEG2_HALF, (1, 1, 1, -1), (1, 2, 2, 5))
        assert res.shape == "II"
        assert res.exponent == 4.0
        assert abs(res.value) <= 10.0 * a ** 4

    def test_shape_three_classification(self):
        res = four_factor(DEG2_HALF, (1, 1, -1, 1), (1, 1, 2, 3))
        assert res.shape == "III"
        assert res.exponent == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            four_factor(DEG2_HALF, (1, 1, 1), (1, 2, 3))
        with pytest.raises(ShapeMismatch):
            four_factor(DEG2_HALF, (1, 1, 1, 1), (1, 2, 4, 3))

    @pytest.mark.parametrize("f", [monomial(2), DEG2_HALF], ids=["z2", "deg2-half"])
    @pytest.mark.parametrize("signs, indices", [
        ((-1, 1, 1, 1), (1, 1, 2, 3)),
        ((1, 1, -1, 1), (1, 2, 2, 3)),
        ((1, -1, 1, 1), (1, 2, 3, 3)),
        ((1, 1, -1, -1), (1, 1, 2, 2)),
        ((1, 1, 1, 1), (2, 2, 2, 2)),
    ])
    def test_shape_mismatch_raises_before_integrating(self, stepped, f, signs, indices):
        with pytest.raises(ShapeMismatch):
            four_factor(f, signs, indices)
        assert stepped == []


class TestHigherCorrelation:
    def test_single_factor_mean_zero(self):
        val = higher_correlation(DEG2_HALF, CorrelationSpec((1,), (3,)))
        assert abs(val) < 1e-10

    def test_pair_reduces_to_lemma(self):
        val = higher_correlation(DEG2_HALF, CorrelationSpec((1, -1), (2, 5)))
        assert abs(abs(val) - 0.5 ** 3) < 1e-10

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_alternating_exactness(self, k):
        indices = tuple(range(1, 2 * k, 2))  # 1, 3, ..., 2k-1
        signs = tuple((-1) ** j for j in range(k))
        spec = CorrelationSpec(signs, indices)
        val = higher_correlation(DEG2_HALF, spec)
        assert abs(abs(val) - 0.5 ** k) < 1e-8

    def test_conjugation_under_sign_flip(self):
        spec = CorrelationSpec((1, 1, -1), (1, 3, 6))
        v1 = higher_correlation(DEG2_HALF, spec)
        v2 = higher_correlation(DEG2_HALF, CorrelationSpec((-1, -1, 1), (1, 3, 6)))
        assert abs(v2 - np.conj(v1)) < 1e-10

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            higher_correlation(DEG2_HALF, CorrelationSpec((1, -1), (1, 30)))


class TestShiftParity:
    """The invariance-shifted integrals agree with the direct ones."""

    def test_criterion_5_quadruples_up_to_eight(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            n = tuple(int(v) for v in
                      np.sort(rng.choice(np.arange(1, 9), size=4, replace=False)))
            e1, e3 = int(rng.choice([-1, 1])), int(rng.choice([-1, 1]))
            signs = (e1, -e1, e3, e3)
            res = four_factor(DEG2_HALF, signs, n)
            ref = direct_signed_integral(DEG2_HALF, signs, n, 1e-11)
            assert abs(res.value - ref) <= PARITY_TOL, (signs, n)
        for n in itertools.combinations(range(1, 9), 4):
            res = four_factor(DEG2_HALF, (1, -1, 1, -1), n)
            ref = direct_signed_integral(DEG2_HALF, (1, -1, 1, -1), n, 1e-11)
            assert abs(res.value - ref) <= PARITY_TOL, n

    @pytest.mark.parametrize("signs,indices", [
        ((1, -1, 1, 1), (4, 5, 7, 10)), ((1, -1, 1, -1), (4, 5, 7, 10)),
        ((1, -1, 1, -1), (4, 6, 8, 10)), ((-1, 1, -1, -1), (1, 3, 5, 9))])
    def test_heaviest_benchmark_shapes(self, signs, indices):
        res = four_factor(DEG2_HALF, signs, indices)
        ref = direct_signed_integral(DEG2_HALF, signs, indices, 1e-11)
        assert abs(res.value - ref) <= PARITY_TOL

    @pytest.mark.parametrize("f", [monomial(2), monomial(3), DEG2_HALF],
                             ids=["z2", "z3", "deg2-half"])
    def test_pairs(self, f):
        for k in range(1, 6):
            for j in range(k + 1, 7):
                value = pair_correlation(f, k, j).value
                ref = direct_signed_integral(f, (-1, 1), (k, j), 1e-12)
                assert abs(value - ref) <= PARITY_TOL, (k, j)

    def test_criterion_4_blocks(self):
        # lhs reaches a few hundred, where one ulp is 6e-14, so the bound
        # is relative to the value's size
        for blocks in criterion_4_blocks():
            res = block_product_factorization(DEG2_HALF, blocks)
            ref_lhs, ref_rhs = direct_factorization(DEG2_HALF, blocks)
            assert abs(res.lhs - ref_lhs) <= PARITY_TOL * max(1.0, abs(ref_lhs))
            assert abs(res.rhs - ref_rhs) <= PARITY_TOL * max(1.0, abs(ref_rhs))


class TestShiftReach:
    """Integrals the shift brings within budget and within convergence."""

    def test_far_alternating_quadruple(self):
        # the direct integrand has degree 2^46 and exceeds the budget
        res = four_factor(DEG2_HALF, (1, -1, 1, -1), (40, 41, 45, 46))
        assert res.shape == "IV"
        assert res.residual <= 1e-8

    @pytest.mark.parametrize("zero", [0.999, 0.999 * np.exp(1j)],
                             ids=["real", "rotated"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_adjacent_pairs_near_the_circle(self, zero, k):
        # the direct path raised NonConvergence at (2, 3), (3, 4), (4, 5)
        pc = pair_correlation(BlaschkeProduct(zeros=(0.0, zero)), k, k + 1)
        assert pc.residual <= 1e-9

    def test_near_circle_pairs_converge_or_raise_typed(self):
        # the start grid ignores the pole at 1/0.999: spread 3 cannot converge
        # by the cap and must say so, never return a silently wrong value
        f = BlaschkeProduct(zeros=(0.0, 0.999))
        for j in (2, 3):
            assert pair_correlation(f, 1, j).residual <= 1e-9, j
        with pytest.raises(NonConvergence) as err:
            pair_correlation(f, 1, 4)
        assert err.value.grid_size == DEFAULT_MAX_GRID

    def test_criterion_6_alternating_residuals(self):
        for k in range(2, 7):
            spec = CorrelationSpec(tuple((-1) ** j for j in range(k)),
                                   tuple(range(1, 2 * k, 2)))
            rep = phi_exponent(spec)
            target = 0.0 if rep.exact_zero else 0.5 ** rep.phi
            assert abs(abs(higher_correlation(DEG2_HALF, spec)) - target) <= 1e-14, k

    def test_budget_set_by_spread(self):
        assert pair_correlation(DEG2_HALF, 30, 31).residual <= 1e-9
        with pytest.raises(BudgetExceeded):
            pair_correlation(DEG2_HALF, 2, 31)


class TestExactKernel:
    """`_exact_signed_integral` against quadrature, and past its reach."""

    @pytest.mark.parametrize("f", [monomial(2), monomial(3), DEG2_HALF, DEG3_ROTATED],
                             ids=["z2", "z3", "deg2-half", "deg3-rotated"])
    def test_matches_quadrature_on_criterion_integrals(self, f):
        compared = 0
        for signs, powers in criterion_integrals():
            try:
                value = _signed_integral(f, signs, powers, 1e-11)
            except (BudgetExceeded, NonConvergence):
                # degree 3 at spreads 9 and 10 exceeds the budget; the rotated
                # map does not converge by the grid cap at spreads 7 and 8
                continue
            exact = _exact_signed_integral(f, signs, powers)
            assert abs(value - exact) <= 1e-14, (signs, powers)
            compared += 1
        assert compared >= 190

    def test_values_past_the_quadrature_budget(self):
        with pytest.raises(BudgetExceeded):
            _signed_integral(DEG2_HALF, (-1, 1), (1000, 1030), 1e-12)
        assert _exact_signed_integral(DEG2_HALF, (-1, 1), (1000, 1030)) == 0.5 ** 30
        # a grid for this one would need 2^270 points
        assert _exact_signed_integral(DEG2_HALF, (1, -1, 1, -1), (40, 45, 300, 310)) == 2.0 ** -15

    def test_factors_at_one_index_combine(self):
        # |f^2|^2 = 1 on the circle, so (f^2)^2 conj(f^2)^2 f^5 conj(f^3) is f^5 conj(f^3)
        assert _exact_signed_integral(DEG2_HALF, (1, 1, -1, -1, -1, 1), (2, 2, 2, 2, 3, 5)) \
            == _exact_signed_integral(DEG2_HALF, (-1, 1), (3, 5)) == 0.25


@pytest.mark.parametrize("f", [DEG2_HALF, DEG3_MIXED], ids=["deg2-half", "deg3-mixed"])
@pytest.mark.parametrize("signs,powers", [((-1, 1), (0, 3)), ((1, -1, 1, -1), (0, 1, 3, 4)),
                                          ((-1, -1, 1, 1), (0, 2, 2, 5))])
def test_integrand_bits_do_not_depend_on_batch_length(f, signs, powers):
    # the 2^15-point quadrature grid (512 KiB, where numpy reuses
    # temporaries in place) against its 8192-point slices
    g = _signed_integrand(f, signs, powers)
    z = circle_grid(2 ** 15)
    sliced = np.concatenate([g(z[lo:lo + 8192]) for lo in range(0, len(z), 8192)])
    assert np.array_equal(sliced, g(z))


@pytest.mark.parametrize("f", [DEG2_HALF, DEG3_MIXED], ids=["deg2-half", "deg3-mixed"])
@pytest.mark.parametrize("signs,powers", [((1, -1, 1), (0, 2, 2)), ((-1, 1, 1, -1), (0, 0, 3, 3))])
def test_integrand_multiplies_factors_in_their_order(f, signs, powers):
    # factors at one index keep the order of signs; complex products are not
    # associative in floating point, so another order changes bits
    z = circle_grid(512)
    its = list(f.orbit(z, powers[-1]))
    want = np.ones_like(z)
    for s, n in zip(signs, powers):
        want = want * its[n] if s > 0 else np.conj(its[n]) * want
    got = _signed_integrand(f, signs, powers)(z)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestPhiExponent:
    def test_alternating_quadruple(self):
        rep = phi_exponent(CorrelationSpec((1, -1, 1, -1), (1, 2, 3, 4)))
        assert rep.deltas == (1.0, 0.0, 1.0)
        assert rep.phi == 2.0
        assert rep.lower_bound == 1.0

    def test_single_gap(self):
        rep = phi_exponent(CorrelationSpec((1, -1), (1, 5)))
        assert rep.deltas == (1.0,)
        assert rep.phi == 4.0

    def test_same_sign_triple(self):
        rep = phi_exponent(CorrelationSpec((1, 1, 1), (1, 4, 7)))
        assert rep.deltas[0] == 1.0
        assert rep.deltas[1] >= 0.5
        assert rep.phi >= 4.5

    @given(st.integers(2, 8), st.integers(0, 10 ** 6), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_structural_invariants_hold(self, k, sign_seed, gap_seed):
        rng = np.random.default_rng(sign_seed)
        signs = tuple(int(s) for s in rng.choice([-1, 1], size=k))
        gaps = rng.integers(1, gap_seed + 1, size=k - 1)
        indices = tuple(int(v) for v in np.cumsum(np.concatenate([[1], gaps])))
        spec = CorrelationSpec(signs, indices)
        rep = phi_exponent(spec)  # asserts delta structure internally
        assert rep.deltas[0] == 1.0
        assert rep.deltas[-1] >= 0.5
        assert rep.phi >= spec.k * spec.min_gap / 4.0 - 1e-12
        for j in range(1, len(rep.deltas)):
            assert (rep.deltas[j] == 1.0) == (rep.deltas[j - 1] == 0.0)


class TestDecayCheck:
    def test_alternating_family_constant_one(self):
        specs = [CorrelationSpec(tuple((-1) ** j for j in range(k)),
                                 tuple(range(1, 2 * k, 2)))
                 for k in (2, 3, 4)]
        check = decay_check(DEG2_HALF, specs)
        assert check.passed
        assert check.fitted_c <= 1.0 + 1e-6

    def test_monomial_vacuous(self):
        specs = [CorrelationSpec((1, -1), (1, 3))]
        check = decay_check(monomial(2), specs)
        assert check.vacuous
        assert check.passed

    def test_mixed_sign_family_bounded(self):
        rng = np.random.default_rng(23)
        specs = []
        for _ in range(8):
            k = int(rng.integers(2, 5))
            gaps = rng.integers(2, 4, size=k - 1)
            indices = tuple(int(v) for v in np.cumsum(np.concatenate([[1], gaps])))
            signs = tuple(int(s) for s in rng.choice([-1, 1], size=k))
            specs.append(CorrelationSpec(signs, indices))
        check = decay_check(DEG2_HALF, specs)
        assert check.passed, check.fitted_c
