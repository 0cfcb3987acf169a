"""Variance formulas, sandwich bounds, hypothesis checks and the greedy split."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerclt import clt, variance
from innerclt.blaschke import BlaschkeProduct, monomial
from innerclt.errors import RegimeTooSmall
from innerclt.quadrature import integrate
from innerclt.variance import (CoefficientSequence, _cross_sum, asymptotic_sigma_squared,
                               growth_condition, l2_identity_check,
                               quasiorthogonality, sigma_N_squared, split_plan,
                               tail_sigma_squared, toeplitz_sandwich,
                               toeplitz_symbol_range)

DEG2_HALF = BlaschkeProduct(zeros=(0.0, 0.5))
REF_LAMBDAS = [0.0, 0.5, -0.9, 0.7j, 0.99 * np.exp(0.3j)]
REF_TOL = 1e-12


def ref_lag_sums(arr):
    """sum_n conj(a_n) a_{n+k} for k = 1 .. N-1, one lag at a time."""
    return [complex(np.sum(np.conj(arr[:len(arr) - k]) * arr[k:]))
            for k in range(1, len(arr))]


def ref_sigma2(arr, lam):
    """The O(N^2) definition S_N^2 + 2 Re sum_k lam^k sum_n conj(a_n) a_{n+k}."""
    cross = sum((lam ** k * auto).real
                for k, auto in enumerate(ref_lag_sums(arr), start=1))
    return float(np.sum(np.abs(arr) ** 2)) + 2.0 * cross


def ref_pair_sum(arr, idx, lam):
    """|sum_{n<k in idx} conj(a_n) a_k lam^(k-n)|, pair by pair (1-based idx)."""
    vals = arr[np.array(idx) - 1]
    pos = np.array(idx)
    total = 0j
    for i in range(len(idx)):
        total += np.sum(np.conj(vals[i]) * vals[i + 1:] * lam ** (pos[i + 1:] - pos[i]))
    return abs(complex(total))


def auxiliary_bound(arr, idx, lam):
    """|cross sum over idx| of `_cross_sum` and its bound |lam|/(1-|lam|) sum_idx |a_n|^2.

    The values off idx are zeroed, so the one-pass recursion runs across them.
    """
    pos = np.array(idx) - 1
    scattered = np.zeros(pos[-1] + 1, dtype=complex)
    scattered[pos] = arr[pos]
    bound = abs(lam) / (1.0 - abs(lam)) * float(np.sum(np.abs(arr[pos]) ** 2))
    return abs(_cross_sum(scattered, lam)), bound


def assert_rel_close(value, ref):
    assert abs(value - ref) <= REF_TOL * abs(ref), (value, ref)


def random_complex(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestCoefficientSequence:
    def test_constructors(self):
        assert np.array_equal(CoefficientSequence.ones(5).values, (1.0 + 0j,) * 5)
        geo = CoefficientSequence.geometric(0.5, 3)
        assert np.allclose(geo.array(), [0.5, 0.25, 0.125])
        rs = CoefficientSequence.random_signs(100, 4)
        assert set(np.real(rs.array())) <= {-1.0, 1.0}
        assert np.array_equal(rs.array(),
                              CoefficientSequence.random_signs(100, 4).array())

    def test_s2_prefix(self):
        a = CoefficientSequence.explicit([1, 2j, 3])
        assert a.s2(2) == 5.0
        assert a.s2() == 14.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CoefficientSequence(())

    def test_values_are_read_only_copy(self):
        src = np.array([1.0, 2.0, 3.0])
        a = CoefficientSequence.explicit(src)
        src[0] = 9.0
        assert np.array_equal(a.values, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            a.values[0] = 5.0
        with pytest.raises(ValueError):
            a.array(2)[1] = 5.0
        with pytest.raises(ValueError):
            a.values.flags.writeable = True

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            CoefficientSequence.explicit(np.ones((2, 3)))

    # n = 100 is the last term CPython squares for, 101 the first in polar form;
    # 0.3+0.4j and 0.5-0j take the polar form at a nonzero and a -0.0 angle
    @pytest.mark.parametrize("n", [1, 99, 100, 101, 3000])
    @pytest.mark.parametrize("r", [0.5, 0.55, 0.93, 1e-3, -0.6, -0.95,
                                   0.3 + 0.4j, complex(0.5, -0.0)])
    def test_geometric_has_the_bits_of_python_powers(self, r, n):
        powers = np.array([complex(r) ** k for k in range(1, n + 1)], dtype=complex)
        assert CoefficientSequence.geometric(r, n).values.tobytes() == powers.tobytes()


class TestAgainstDoubleSum:
    """Every variance formula against the O(N^2) lag-sum definition."""

    @pytest.mark.parametrize("lam", REF_LAMBDAS)
    @pytest.mark.parametrize("n", [1, 2, 50, 500])
    def test_sigma_and_tail(self, n, lam):
        vals = random_complex(n, seed=n)
        # a third of the values kept, the rest zero: the cross-sum
        # recursion then runs across interior zeros
        sparse = np.zeros(n, dtype=complex)
        keep = np.random.default_rng(n).choice(n, size=max(1, n // 3), replace=False)
        sparse[keep] = vals[keep]
        start = max(1, n // 3)
        for arr in (vals, sparse):
            a = CoefficientSequence.explicit(arr)
            assert_rel_close(sigma_N_squared(a, lam, n), ref_sigma2(arr, lam))
            assert_rel_close(tail_sigma_squared(a, lam, start),
                             ref_sigma2(arr[start - 1:], lam))

    @pytest.mark.parametrize("lam", REF_LAMBDAS)
    @pytest.mark.parametrize("n", [1, 2, 50, 500])
    def test_auxiliary_bound(self, n, lam):
        vals = random_complex(n, seed=n + 1)
        consecutive = range(1, n + 1)
        sparse = sorted(np.random.default_rng(n).choice(
            n, size=max(1, n // 3), replace=False) + 1)
        for idx in (consecutive, sparse):
            lhs, bound = auxiliary_bound(vals, list(idx), lam)
            assert_rel_close(lhs, ref_pair_sum(vals, list(idx), lam))
            assert lhs <= bound + 1e-12

    @pytest.mark.parametrize("lam", REF_LAMBDAS)
    @pytest.mark.parametrize("n", [50, 500])  # shorter sequences hold no block
    def test_split_plan_ratio(self, n, lam):
        vals = random_complex(n, seed=n + 2)
        plan = split_plan(CoefficientSequence.explicit(vals), n, lam=lam)
        covered = sum(ref_sigma2(vals[lo:hi], lam)
                      for lo, hi in plan.xi_blocks + plan.eta_gaps)
        assert_rel_close(plan.partial_ratio, covered / ref_sigma2(vals, lam))

    @pytest.mark.parametrize("n", [2, 50, 500])
    def test_quasiorthogonality(self, n):
        vals = random_complex(n, seed=n + 3)
        n_list = sorted({2, max(2, n // 2), n})
        traj = quasiorthogonality(CoefficientSequence.explicit(vals), n_list)
        for m, ratio in zip(n_list, traj.ratios):
            arr = vals[:m]
            ref = max(abs(x) for x in ref_lag_sums(arr)) / float(np.sum(np.abs(arr) ** 2))
            assert_rel_close(ratio, ref)


class TestSigmaN:
    def test_hand_value(self):
        # 3 + 2 (0.5 * 2 + 0.25 * 1) = 5.5
        assert sigma_N_squared(CoefficientSequence.ones(10), 0.5, 3) == 5.5

    @given(st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False,
                                       allow_infinity=False),
                    min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_zero_lambda_is_plain_mass(self, values):
        a = CoefficientSequence.explicit(values)
        n = len(values)
        assert abs(sigma_N_squared(a, 0.0, n) - a.s2(n)) < 1e-10

    def test_asymptotic_regime(self):
        a = CoefficientSequence.ones(10 ** 4)
        val = sigma_N_squared(a, 0.5, 10 ** 4)
        assert abs(val - 3.0 * 10 ** 4) / (3.0 * 10 ** 4) < 1e-3

    def test_positive_for_alternating_negative_lambda(self):
        a = CoefficientSequence.explicit([(-1) ** n for n in range(50)])
        assert sigma_N_squared(a, -0.9, 50) > 0


class TestSigmaMemo:
    """sigma_N_squared computes a repeated (sequence, lambda bits, N) once."""

    @pytest.fixture
    def a(self):
        variance._memo_sigma2.cache_clear()
        return CoefficientSequence.explicit(random_complex(300, 5))

    def test_hit_returns_the_bits_of_a_fresh_kernel(self, a):
        first = sigma_N_squared(a, 0.5 + 0.2j, 300)
        second = sigma_N_squared(a, 0.5 + 0.2j, 300)
        info = variance._memo_sigma2.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        fresh = variance._sigma2(a.array(300), 0.5 + 0.2j)
        assert first.hex() == second.hex() == fresh.hex()

    def test_sandwich_and_split_hit(self, a):
        sigma_N_squared(a, 0.5 + 0.2j, 300)
        toeplitz_sandwich(a, 0.5 + 0.2j, 300)
        split_plan(a, 300, lam=0.5 + 0.2j)
        info = variance._memo_sigma2.cache_info()
        assert (info.hits, info.misses) == (2, 1)

    @pytest.mark.parametrize("other", [
        lambda a: (CoefficientSequence.explicit(a.values), 0.5 + 0.2j, 300),
        lambda a: (a, 0.5 + 0.2j, 299),
        lambda a: (a, complex(math.nextafter(0.5, 1.0), 0.2), 300),
        lambda a: (a, complex(0.5, 0.2), 300),  # the same bits: a hit
        lambda a: (a, complex(0.0, 0.0), 300),
    ], ids=["equal-values", "other-N", "lambda-one-ulp", "same", "zero"])
    def test_only_the_same_key_hits(self, a, other):
        sigma_N_squared(a, 0.5 + 0.2j, 300)
        b, lam, n = other(a)
        value = sigma_N_squared(b, lam, n)
        hit = b is a and lam == 0.5 + 0.2j and n == 300
        assert variance._memo_sigma2.cache_info().misses == (1 if hit else 2)
        assert value.hex() == variance._sigma2(b.array(n), lam).hex()

    def test_signed_zeros_are_separate_keys(self, a):
        sigma_N_squared(a, complex(0.5, 0.0), 300)
        sigma_N_squared(a, complex(0.5, -0.0), 300)
        assert variance._memo_sigma2.cache_info().misses == 2


# float.hex of sigma_N_squared, tail_sigma_squared (the tail from N) and
# split_plan(...).partial_ratio (None: N cannot supply a block), taken
# before the sigma_N^2 memo.  The mean 1 makes the cross sum as large as
# S_N^2, so a change in how the kernel rounds shows in the bits.
PINNED_VALUES = 1.0 + 0.5 * random_complex(5000, 20260)
PINNED_BITS = {
    (0.41 + 0.27j, 1): ("0x1.f73d4d37f5267p-1", "0x1.6a70c9ca320f1p+13", None),
    (0.41 + 0.27j, 2): ("0x1.3f8b462a367ffp+1", "0x1.6a633aeded170p+13", "0x1.0000000000000p+0"),
    (0.41 + 0.27j, 999): ("0x1.2dfb2474c2927p+11", "0x1.1f0152eb46e62p+13", "0x1.f153811bd72b9p-1"),
    (0.41 + 0.27j, 5000): ("0x1.6a70c9ca320f1p+13", "0x1.56dbab9634cd5p-1", "0x1.f8d6750256659p-1"),
    (0.5, 1): ("0x1.f73d4d37f5267p-1", "0x1.12f823e6b5064p+14", None),
    (0.5, 2): ("0x1.7442fe672db8bp+1", "0x1.12ee8ab9826e9p+14", "0x1.0000000000000p+0"),
    (0.5, 999): ("0x1.c89f666783ab4p+11", "0x1.b3c54cc71fecdp+13", "0x1.e1f51a525b36cp-1"),
    (0.5, 5000): ("0x1.12f823e6b5064p+14", "0x1.56dbab9634cd5p-1", "0x1.f2ccaf35bc8f0p-1"),
}


@pytest.mark.parametrize("lam, N", list(PINNED_BITS))
def test_variance_kernel_bits_are_pinned(lam, N):
    sigma, tail, ratio = PINNED_BITS[lam, N]
    a = CoefficientSequence.explicit(PINNED_VALUES)
    assert sigma_N_squared(a, lam, N).hex() == sigma
    assert tail_sigma_squared(a, lam, N).hex() == tail
    assert toeplitz_sandwich(a, lam, N).sigma2.hex() == sigma
    if ratio is None:
        with pytest.raises(RegimeTooSmall):
            split_plan(a, N, lam=lam)
    else:
        assert split_plan(a, N, lam=lam).partial_ratio.hex() == ratio


@pytest.mark.parametrize("lam", [complex(math.nan, 0.1), complex(0.1, math.nan), math.nan],
                         ids=["nan-real", "nan-imag", "nan-float"])
@pytest.mark.parametrize("call", [
    lambda a, lam: sigma_N_squared(a, lam, 10),
    lambda a, lam: tail_sigma_squared(a, lam, 3),
    lambda a, lam: toeplitz_sandwich(a, lam, 10),
    lambda a, lam: split_plan(a, 10, lam=lam),
    lambda a, lam: asymptotic_sigma_squared(lam),
], ids=["sigma", "tail", "sandwich", "split", "asymptotic"])
def test_nan_lambda_is_rejected(call, lam):
    with pytest.raises(ValueError, match=r"need \|lambda\| < 1"):
        call(CoefficientSequence.ones(10), lam)


class TestTailSigma:
    def test_geometric_oracle(self):
        a = CoefficientSequence.geometric(0.5, 30)
        # sum_{n=N}^{30} 4^{-n}, plain geometric sum at lambda = 0
        for n in (1, 3, 7):
            expected = (4.0 ** -n - 4.0 ** -31) / (1 - 0.25)
            assert abs(tail_sigma_squared(a, 0.0, n) - expected) < 1e-15

    def test_whole_tail_equals_sigma(self):
        a = CoefficientSequence.random_signs(40, 2)
        assert abs(tail_sigma_squared(a, 0.3, 1)
                   - sigma_N_squared(a, 0.3, 40)) < 1e-12

    def test_zero_tail(self):
        a = CoefficientSequence.explicit([1.0, 1.0, 0.0, 0.0])
        assert tail_sigma_squared(a, 0.5, 3) == 0.0


class TestAsymptoticSigma:
    def test_values(self):
        assert asymptotic_sigma_squared(0.0) == 1.0
        assert asymptotic_sigma_squared(0.5) == 3.0
        assert abs(asymptotic_sigma_squared(-0.9) - 0.1 / 1.9) < 1e-15

    def test_rejects_unit_lambda(self):
        with pytest.raises(ValueError):
            asymptotic_sigma_squared(1.0)


class TestToeplitzSandwich:
    def test_symbol_extremes_at_half(self):
        lo, hi = toeplitz_symbol_range(0.5)
        assert abs(lo - 1.0 / 3.0) < 1e-9
        assert abs(hi - 3.0) < 1e-9

    def test_symbol_extremes_rotated_lambda(self):
        lam = 0.5j * np.exp(0.3j)
        lo, hi = toeplitz_symbol_range(lam)
        assert abs(lo - 1.0 / 3.0) < 1e-9
        assert abs(hi - 3.0) < 1e-9

    def test_zero_lambda_collapses(self):
        a = CoefficientSequence.ones(10)
        rep = toeplitz_sandwich(a, 0.0, 10)
        assert rep.sandwich_c == 1.0
        assert rep.sigma2 == rep.s2

    def test_random_sweep(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            vals = rng.standard_normal(32) + 1j * rng.standard_normal(32)
            a = CoefficientSequence.explicit(vals)
            rep = toeplitz_sandwich(a, 0.7j, 32)  # constructor asserts sandwich
            assert rep.sigma2 > 0


class TestAuxiliaryBound:
    """|sum_{n<k in A} conj(a_n) a_k lam^(k-n)| <= |lam|/(1-|lam|) sum_A |a_n|^2."""

    def test_zero_lambda(self):
        lhs, bound = auxiliary_bound(np.ones(10, dtype=complex), range(1, 11), 0.0)
        assert lhs == 0.0 == bound

    def test_ones_closed_form(self):
        n = 20
        lhs, bound = auxiliary_bound(np.ones(n, dtype=complex), range(1, n + 1), 0.5)
        expected = sum(0.5 ** j * (n - j) for j in range(1, n))
        assert abs(lhs - expected) < 1e-10
        assert bound == pytest.approx(n)
        assert lhs <= bound

    def test_random_sweep_high_lambda(self):
        for seed in range(20):
            a = CoefficientSequence.random_signs(64, seed)
            lhs, bound = auxiliary_bound(a.array(), range(1, 65), 0.9)
            assert lhs <= bound + 1e-12

    def test_sparse_index_set(self):
        lhs, _ = auxiliary_bound(np.ones(20, dtype=complex), (1, 5, 9), 0.5)
        expected = abs(0.5 ** 4 + 0.5 ** 8 + 0.5 ** 4)
        assert abs(lhs - expected) < 1e-12


class TestNormIdentities:
    def test_norms_sum_with_the_sampling_kernel(self):
        # so the L2 identity checks the sums that clt simulate samples
        assert variance._accumulate is clt._accumulate

    def test_monomial_orthogonality(self):
        res = l2_identity_check(monomial(2), CoefficientSequence.ones(8), 4)
        assert res < 1e-10

    def test_cross_term_pipeline_agreement(self):
        res = l2_identity_check(DEG2_HALF, CoefficientSequence.ones(8), 3)
        assert res < 1e-9

    def test_single_term(self):
        a = CoefficientSequence.explicit([0, 0, 2.0 + 1j, 0])
        res = l2_identity_check(DEG2_HALF, a, 4)
        assert res < 1e-10

    @pytest.mark.parametrize("f", [monomial(2), DEG2_HALF], ids=["z2", "deg2-half"])
    @pytest.mark.parametrize("N", [1, 3, 6, 8])
    def test_shifted_norms_match_direct(self, f, N):
        # the norm integrates sum a_n f^{n-1}; the reference integrates
        # sum a_n f^n itself on a grid sized from 4 d^N
        a = CoefficientSequence.explicit(np.random.default_rng(N).standard_normal(8))

        def direct(z):
            its = f.boundary_iterates(z, N)
            return sum(a.values[n - 1] * its[n] for n in range(1, N + 1))

        degree = 4 * f.degree ** N
        m2 = integrate(lambda z: np.abs(direct(z)) ** 2, tol=1e-11, degree=degree).value.real
        lam = f.taylor_at_zero().c1
        assert abs(l2_identity_check(f, a, N)
                   - abs(m2 - sigma_N_squared(a, lam, N))) <= 1e-14 * max(1.0, m2)


class TestHypothesisChecks:
    def test_growth_ones_closed_form(self):
        traj = growth_condition(CoefficientSequence.ones(2000), 0.5,
                                [100, 400, 1600])
        for n, r in zip(traj.n_values, traj.ratios):
            assert abs(r - n ** -0.25) < 1e-12
        assert traj.holds

    def test_growth_exponential_fails(self):
        a = CoefficientSequence.explicit([2.0 ** n for n in range(1, 30)])
        traj = growth_condition(a, 0.5, [10, 20, 29])
        assert not traj.holds
        assert traj.ratios[-1] > traj.ratios[0]

    def test_quasi_ones_fails(self):
        traj = quasiorthogonality(CoefficientSequence.ones(1000), [100, 1000])
        assert not traj.holds
        assert abs(traj.ratios[-1] - 999.0 / 1000.0) < 1e-12

    def test_quasi_alternating_fails(self):
        a = CoefficientSequence.explicit([(-1) ** n for n in range(1000)])
        traj = quasiorthogonality(a, [100, 1000])
        assert not traj.holds

    def test_empty_n_list(self):
        a = CoefficientSequence.ones(10)
        with pytest.raises(ValueError):
            growth_condition(a, 0.5, [])
        with pytest.raises(ValueError):
            quasiorthogonality(a, [])

    @pytest.mark.parametrize("check,n_list", [
        (lambda a, n: growth_condition(a, 0.5, n), [1, 5]),
        (lambda a, n: growth_condition(a, 0.5, n), [2, 5]),
        (quasiorthogonality, [2, 5]),
    ], ids=["growth[1,5]", "growth[2,5]", "quasi[2,5]"])
    def test_zero_mass_at_a_tested_n_is_a_value_error(self, check, n_list):
        # S_N^2 = 0 at N = 2: the same typed error split_plan raises
        a = CoefficientSequence.explicit([0, 0, 1, 1, 1])
        with pytest.raises(ValueError, match="need nonzero coefficient mass up to N"):
            split_plan(a, 2)
        with pytest.raises(ValueError, match="need nonzero coefficient mass up to N"):
            check(a, n_list)

    def test_quasi_random_signs_holds(self):
        a = CoefficientSequence.random_signs(4000, 13)
        traj = quasiorthogonality(a, [250, 1000, 4000])
        assert traj.holds


class TestSplitPlan:
    def test_first_block_and_gap_ones(self):
        plan = split_plan(CoefficientSequence.ones(2000), 100)
        assert plan.p_n == pytest.approx(10 ** 1.2)
        assert plan.q_n == pytest.approx(10 ** 0.8)
        lo, hi = plan.xi_blocks[0]
        assert hi - lo == 16  # minimal count reaching p_N ~ 15.85
        lo, hi = plan.eta_gaps[0]
        assert hi - lo == 7   # minimal count reaching q_N ~ 6.31

    @pytest.mark.parametrize("n", [100, 400, 1600])
    def test_bounds_hold_for_ones(self, n):
        plan = split_plan(CoefficientSequence.ones(2000), n)
        assert plan.mass_bounds_ok
        assert plan.length_bounds_ok
        assert plan.q_count * (plan.p_n + plan.q_n) <= plan.N + plan.p_n + plan.q_n

    def test_partial_ratio_increases_to_one(self):
        ones = CoefficientSequence.ones(2000)
        ratios = [split_plan(ones, n).partial_ratio for n in (100, 400, 1600)]
        assert ratios == sorted(ratios)
        assert ratios[-1] >= 0.9
        assert all(r <= 1.0 + 1e-12 for r in ratios)

    def test_zero_lambda_ratio_is_mass_fraction(self):
        ones = CoefficientSequence.ones(500)
        plan = split_plan(ones, 400, lam=0.0)
        covered = sum(m for m in plan.block_masses) + sum(plan.gap_masses)
        assert plan.partial_ratio == pytest.approx(covered / 400.0)

    def test_regime_too_small(self):
        # total mass below S_N^{1+eps} (S_N < 1), so no block can complete
        with pytest.raises(RegimeTooSmall):
            split_plan(CoefficientSequence.geometric(0.5, 3), 3)

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            split_plan(CoefficientSequence.explicit([0.0, 0.0, 0.0]), 3)
