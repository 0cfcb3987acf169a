"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines even when a criterion fails.
"""

import math
import time

import numpy as np

from innerclt.blaschke import BlaschkeProduct, CirclePoint, monomial
from innerclt.clark import (check_first_moment, check_second_moment,
                            clark_measure, desintegrate)
from innerclt.clt import Tolerances, gauss_report, simulate
from innerclt.correlations import (BlockSum, CorrelationSpec,
                                   block_product_factorization, decay_check,
                                   four_factor, higher_correlation,
                                   pair_correlation, phi_exponent)
from innerclt.quadrature import check_invariance
from innerclt.variance import (CoefficientSequence, asymptotic_sigma_squared,
                               growth_condition, l2_identity_check,
                               quasiorthogonality, sigma_N_squared, split_plan,
                               toeplitz_sandwich, toeplitz_symbol_range)

Z2 = monomial(2)
Z3 = monomial(3)
DEG2_HALF = BlaschkeProduct(zeros=(0.0, 0.5))
TEST_MAPS = (Z2, Z3, DEG2_HALF)


def report(number, label, passed, detail=""):
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {label} {detail}")
    assert passed, f"criterion {number}: {label} {detail}"


def test_criterion_1_invariance():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for f in TEST_MAPS:
        for _ in range(10):
            degree = int(rng.integers(1, 5))
            coeffs = rng.standard_normal(degree) + 1j * rng.standard_normal(degree)

            def g(z, c=coeffs):
                out = np.zeros_like(z)
                for p, cp in enumerate(c, start=1):
                    out = out + cp * z ** p + np.conj(cp) * np.conj(z) ** p
                return out

            check = check_invariance(f, g)
            worst = max(worst, check.residual)
    elapsed = time.time() - t0
    report(1, "measure invariance", worst <= 1e-10 and elapsed < 5.0,
           f"(max residual {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_pair_correlations():
    t0 = time.time()
    worst = 0.0
    for f in (Z2, DEG2_HALF, BlaschkeProduct(zeros=(0.0, 0.3 + 0.3j))):
        for k in range(1, 6):
            for j in range(k + 1, 7):
                worst = max(worst, pair_correlation(f, k, j).residual)
    elapsed = time.time() - t0
    report(2, "pair correlations", worst <= 1e-9 and elapsed < 10.0,
           f"(max residual {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_3_clark():
    t0 = time.time()
    ok = True
    worst_moment = 0.0
    rng = np.random.default_rng(33)
    for f in TEST_MAPS:
        for theta in rng.uniform(0, 2 * math.pi, 20):
            alpha = CirclePoint(float(theta))
            mu = clark_measure(f, alpha)
            ok &= len(mu.atoms) == f.degree
            ok &= abs(float(np.sum(mu.weights)) - 1.0) <= 1e-10
            worst_moment = max(worst_moment, check_first_moment(f, alpha),
                               check_second_moment(f, alpha))
        _, res = desintegrate(f, lambda z: np.real(z) ** 2 + z ** 2, k_alpha=512)
        ok &= res <= 1e-8
    elapsed = time.time() - t0
    report(3, "clark measures", ok and worst_moment <= 1e-8 and elapsed < 30.0,
           f"(max moment residual {worst_moment:.2e}, {elapsed:.1f}s)")


def test_criterion_4_factorization():
    hand = block_product_factorization(
        Z2, [BlockSum.ones((1, 2)), BlockSum.ones((3, 4))])
    ok = abs(hand.lhs - 4.0) <= 1e-8 and hand.residual <= 1e-8
    rng = np.random.default_rng(44)
    worst = hand.residual
    for trial in range(20):
        n_blocks = 2 + trial % 2
        blocks, start = [], 1
        for _ in range(n_blocks):
            size = int(rng.integers(1, 3))
            idx = tuple(range(start, start + size))
            coeffs = tuple(rng.standard_normal(size) + 1j * rng.standard_normal(size))
            blocks.append(BlockSum(idx, coeffs))
            start += size + int(rng.integers(0, 2))
        res = block_product_factorization(DEG2_HALF, blocks)
        worst = max(worst, res.residual)
    report(4, "block-product factorization", ok and worst <= 1e-8,
           f"(max residual {worst:.2e})")


def test_criterion_5_four_factor():
    rng = np.random.default_rng(55)
    worst_one = 0.0
    for _ in range(50):
        n = tuple(int(v) for v in
                  np.sort(rng.choice(np.arange(1, 9), size=4, replace=False)))
        e1, e3 = int(rng.choice([-1, 1])), int(rng.choice([-1, 1]))
        res = four_factor(DEG2_HALF, (e1, -e1, e3, e3), n)
        worst_one = max(worst_one, abs(res.value))
    worst_four = 0.0
    for n1 in range(1, 8):
        for n2 in range(n1 + 1, 9):
            for n3 in range(n2 + 1, 10):
                for n4 in range(n3 + 1, 11):
                    res = four_factor(DEG2_HALF, (1, -1, 1, -1), (n1, n2, n3, n4))
                    worst_four = max(worst_four, res.residual)
    hand = four_factor(DEG2_HALF, (1, -1, 1, -1), (1, 2, 3, 4))
    ok = (worst_one <= 1e-8 and worst_four <= 1e-8
          and abs(abs(hand.value) - 0.25) <= 1e-8)
    report(5, "four-factor shapes", ok,
           f"(max |I| {worst_one:.2e}, max IV residual {worst_four:.2e})")


def test_criterion_6_higher_order_decay():
    worst = 0.0
    for k in range(2, 7):
        indices = tuple(range(1, 2 * k, 2))
        signs = tuple((-1) ** j for j in range(k))
        spec = CorrelationSpec(signs, indices)
        val = higher_correlation(DEG2_HALF, spec)
        rep = phi_exponent(spec)
        # odd k leaves one factor unpaired and the integral vanishes exactly
        target = 0.0 if rep.exact_zero else 0.5 ** rep.phi
        worst = max(worst, abs(abs(val) - target))
    rng = np.random.default_rng(66)
    specs = []
    for _ in range(12):
        k = int(rng.integers(2, 6))
        gaps = rng.integers(2, 4, size=k - 1)
        indices = np.cumsum(np.concatenate([[1], gaps]))
        if indices[-1] > 11:
            indices = indices - (indices[-1] - 11)
            indices = np.maximum(indices, 1)
        if np.any(np.diff(indices) < 2) or indices[0] < 1:
            continue
        signs = tuple(int(s) for s in rng.choice([-1, 1], size=k))
        specs.append(CorrelationSpec(signs, tuple(int(v) for v in indices)))
    check = decay_check(DEG2_HALF, specs)
    for spec in specs:
        phi_exponent(spec)  # structural asserts fire internally
    report(6, "higher-order decay",
           worst <= 1e-8 and all(s.min_gap >= 2 for s in specs)
           and check.passed and check.fitted_c <= 100.0,
           f"(alternating residual {worst:.2e}, fitted C {check.fitted_c:.2f})")


def test_criterion_7_variance():
    ones = CoefficientSequence.ones(64)
    ok = sigma_N_squared(ones, 0.5, 3) == 5.5
    ok &= asymptotic_sigma_squared(0.5) == 3.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        toeplitz_sandwich(CoefficientSequence.explicit(vals), 0.7j, 48)
    res = max(l2_identity_check(DEG2_HALF, ones, 6),
              l2_identity_check(Z2, ones, 6))
    lo, hi = toeplitz_symbol_range(0.5)
    ok &= res <= 1e-8
    ok &= abs(lo - 1.0 / 3.0) <= 1e-9 and abs(hi - 3.0) <= 1e-9
    report(7, "variance formulas", ok,
           f"(l2 residual {res:.2e}, symbol range [{lo:.6f}, {hi:.6f}])")


def test_criterion_8_split_plan():
    ones = CoefficientSequence.ones(2000)
    ratios = []
    ok = True
    for n in (100, 400, 1600):
        plan = split_plan(ones, n)
        ok &= plan.mass_bounds_ok and plan.length_bounds_ok
        ratios.append(plan.partial_ratio)
    ok &= ratios == sorted(ratios) and ratios[-1] >= 0.9
    report(8, "greedy split plan", ok,
           f"(partial ratios {[f'{r:.3f}' for r in ratios]})")


def test_criterion_9_clt_headline():
    t0 = time.time()
    tol = Tolerances(mean=0.01, abs2=0.01, sq=0.02, abs4=0.05, ks=0.02)
    details = []
    all_ok = True
    for f, n, m, seed, tag in ((Z2, 18, 200_000, 12345, "z^2"),
                               (DEG2_HALF, 14, 100_000, 777, "deg2")):
        a = CoefficientSequence.ones(n)
        rep = gauss_report(simulate(f, a, n, m, seed), tol)
        all_ok &= rep.passed
        details.append(f"{tag}: ks=({rep.ks_re:.4f},{rep.ks_im:.4f}) "
                       f"e2={rep.e_abs2:.4f} e4={rep.e_abs4:.4f}")
    elapsed = time.time() - t0
    report(9, "CLT headline", all_ok and elapsed < 60.0,
           f"({'; '.join(details)}, {elapsed:.1f}s)")


def test_criterion_10_negative_controls():
    small = gauss_report(simulate(Z2, CoefficientSequence.ones(8), 2,
                                  50_000, seed=12345))
    ks_fails = max(small.ks_re, small.ks_im) > 0.02
    growing = CoefficientSequence.explicit([2.0 ** n for n in range(1, 30)])
    growth_fails = not growth_condition(growing, 0.5, [10, 20, 29]).holds
    quasi = quasiorthogonality(CoefficientSequence.ones(1000), [100, 1000])
    quasi_fails = not quasi.holds and quasi.ratios[-1] > 0.99
    report(10, "negative controls", ks_fails and growth_fails and quasi_fails,
           f"(small-N ks {max(small.ks_re, small.ks_im):.3f}, "
           f"quasi ratio {quasi.ratios[-1]:.3f})")
