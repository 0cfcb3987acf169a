"""Sampling of normalized iterate sums and Gaussianity diagnostics."""

import cmath
import itertools
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

import innerclt
from innerclt.blaschke import BlaschkeProduct, CirclePoint, monomial
from innerclt.clt import (BLOCK, Tolerances, _accumulate, _ks_normal, gauss_report,
                          sample_T, simulate)
from innerclt._ndtr import SQRT1_2, _X_UNDER, _exp_neg_square, ndtr_sorted
from innerclt.correlations import _exact_signed_integral
from innerclt.errors import HeavyTruncation, InsufficientSamples
from innerclt.quadrature import integrate, uniform_angles
from innerclt.variance import (CoefficientSequence, asymptotic_sigma_squared,
                               sigma_N_squared, tail_sigma_squared)

DEG2_HALF = BlaschkeProduct(zeros=(0.0, 0.5))
ONES = CoefficientSequence.ones(64)


class TestSampleT:
    def test_fixed_point_value(self):
        # theta = 0 is fixed by z^2; every iterate is 1
        for n in (3, 10):
            val = sample_T(monomial(2), ONES, n, CirclePoint(0.0))
            assert abs(val - math.sqrt(n / 2.0)) < 1e-12

    def test_angle_doubling_hand_value(self):
        # theta = 2pi/3: iterates e^{4pi i/3}, e^{8pi i/3}; sum = -1
        val = sample_T(monomial(2), ONES, 2, CirclePoint(2 * math.pi / 3))
        assert abs(val - (-0.5)) < 1e-12

    def test_zero_coefficients(self):
        zero = CoefficientSequence.explicit([0.0, 0.0, 0.0])
        assert sample_T(monomial(2), zero, 3, CirclePoint(1.0)) == 0.0

    def test_matches_simulate_pipeline(self):
        samples = simulate(DEG2_HALF, ONES, 6, 1000, seed=5)
        # re-evaluate single sample points, drawn on their own, by the scalar path
        from innerclt.quadrature import uniform_angles
        for i in (0, 1, 123, 500, 999):
            theta = float(uniform_angles(5, 1, start=i)[0])
            direct = sample_T(DEG2_HALF, ONES, 6, CirclePoint(theta))
            assert abs(direct - samples[i]) < 1e-12


class TestSimulate:
    def test_deterministic(self):
        d1 = simulate(monomial(2), ONES, 8, 2000, seed=99)
        d2 = simulate(monomial(2), ONES, 8, 2000, seed=99)
        assert np.array_equal(d1, d2)

    def test_seed_changes_samples(self):
        d1 = simulate(monomial(2), ONES, 8, 2000, seed=1)
        d2 = simulate(monomial(2), ONES, 8, 2000, seed=2)
        assert not np.array_equal(d1, d2)

    def test_sample_mean_scales(self):
        d = simulate(monomial(2), ONES, 18, 200_000, seed=3)
        assert abs(np.mean(d)) < 5.0 / math.sqrt(len(d))

    def test_corollary_mode_second_moment(self):
        d = simulate(monomial(2), ONES, 18, 100_000, seed=4, mode="corollary")
        e2 = float(np.mean(np.abs(d) ** 2))
        assert abs(e2 - 0.5) < 0.02

    def test_returns_read_only_samples(self):
        x = simulate(monomial(2), ONES, 8, 2000, seed=0)
        assert x.shape == (2000,) and x.dtype == complex
        with pytest.raises(ValueError):
            x[0] = 1.0

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            simulate(monomial(2), ONES, 8, 10, seed=0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            simulate(monomial(2), ONES, 8, 2000, seed=0, mode="weird")

    @pytest.mark.parametrize("mode", ["main", "tail"])
    @pytest.mark.parametrize("M", [10 ** 15, 10 ** 20])
    def test_unallocatable_sample_count_raises_before_sampling(self, stepped, M, mode):
        # numpy raises MemoryError for 10^15 complex samples, ValueError for 10^20
        with pytest.raises(ValueError, match=f"^cannot hold M = {M} samples: "):
            simulate(monomial(2), ONES, 8, M, seed=0, mode=mode)
        assert stepped == []

    @pytest.mark.parametrize("mode", ["main", "corollary"])
    def test_zero_coefficients_raise(self, mode):
        # in main mode sigma_N^2 = 0 would make every sample 0/0 = NaN
        zero = CoefficientSequence.explicit([0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="identically zero"):
            simulate(monomial(2), zero, 3, 2000, seed=0, mode=mode)


class TestBlockedSampling:
    """simulate samples BLOCK points at a time into one array, in every mode.

    The samples must equal, bit for bit, one whole-array _accumulate pass,
    whether M is below, at or past a block boundary.
    """

    MAPS = [DEG2_HALF, BlaschkeProduct(zeros=(0.0, 0.3 + 0.4j, -0.2j),
                                       rotation=cmath.exp(0.7j))]
    SIZES = [1000, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17, 60_000]

    @staticmethod
    def whole_array(f, coeffs, M, seed, scale, start_power=1):
        z = np.exp(1j * uniform_angles(seed, M))
        return _accumulate(f, coeffs, z, start_power) / scale

    @pytest.mark.parametrize("M", SIZES)
    @pytest.mark.parametrize("f", MAPS)
    def test_simulate_matches_whole_array(self, f, M):
        n = 8
        lam = f.taylor_at_zero().c1
        scales = {"main": math.sqrt(2.0 * sigma_N_squared(ONES, lam, n)),
                  "corollary": math.sqrt(2.0 * n * asymptotic_sigma_squared(lam))}
        for mode, scale in scales.items():
            samples = simulate(f, ONES, n, M, seed=11, mode=mode)
            ref = self.whole_array(f, ONES.array(n), M, 11, scale)
            assert np.array_equal(samples, ref), mode

    @pytest.mark.parametrize("M", SIZES)
    @pytest.mark.parametrize("f", MAPS)
    def test_tail_mode_matches_whole_array(self, f, M):
        a = CoefficientSequence.geometric(0.6, 24)
        samples = simulate(f, a, 6, M, seed=12, mode="tail")
        scale = math.sqrt(2.0 * tail_sigma_squared(a, f.taylor_at_zero().c1, 6))
        ref = self.whole_array(f, a.array()[5:], M, 12, scale, start_power=6)
        assert np.array_equal(samples, ref)

    @staticmethod
    def peak_ratio(M):
        """Peak traced bytes of simulate over the bytes of its samples."""
        tracemalloc.start()
        try:
            samples = simulate(DEG2_HALF, ONES, 14, M, seed=13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / samples.nbytes

    @pytest.mark.parametrize("M", [60_000, 2 ** 18])
    def test_memory_does_not_grow_with_M(self, M):
        # the samples and one block's orbit arrays; a whole-array orbit
        # would hold about 7 sample-sized arrays
        assert self.peak_ratio(M) <= 2.5

    def test_samples_are_not_copied(self):
        # one samples array plus one block's orbit arrays (about 1 MiB);
        # a second copy of the samples would read 2.0
        assert self.peak_ratio(2 ** 18) <= 1.25


class TestKsNormal:
    """_ks_normal against scipy.stats.kstest, bit for bit."""

    @staticmethod
    def _reference(x, sd=0.5):
        return stats.kstest(x, "norm", args=(0.0, sd))

    @pytest.mark.parametrize("f,n,m,seed", [(monomial(2), 18, 200_000, 12345),
                                            (DEG2_HALF, 14, 100_000, 777)])
    def test_headline_columns(self, f, n, m, seed):
        x = simulate(f, CoefficientSequence.ones(n), n, m, seed)
        for col in (x.real, x.imag, np.round(x.real, 2)):
            assert _ks_normal(col, 0.5) == self._reference(col).statistic

    @pytest.mark.parametrize("M", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 200_000])
    def test_lengths_around_the_block(self, M):
        x = np.random.default_rng(M).normal(0.02, 0.5, M)
        assert _ks_normal(x, 0.5) == self._reference(x).statistic

    @pytest.mark.parametrize("x", [[0.3], [-0.2, 0.7], [0.1, -1.0, 0.1]])
    def test_tiny_samples(self, x):
        x = np.array(x)
        assert _ks_normal(x, 0.5) == self._reference(x).statistic

    @pytest.mark.parametrize("shift,sign", [(0.3, -1), (-0.3, 1)])
    def test_each_side_attains_the_maximum(self, shift, sign):
        # a right shift puts the empirical CDF below the target (D-), a left
        # shift above it (D+)
        x = np.random.default_rng(2).normal(shift, 0.5, 5000)
        ref = self._reference(x)
        assert ref.statistic_sign == sign
        assert _ks_normal(x, 0.5) == ref.statistic


class TestNdtr:
    """ndtr_sorted against scipy.special.ndtr, bit for bit."""

    @staticmethod
    def assert_matches(a):
        a = np.sort(np.asarray(a, dtype=float))
        got, ref = ndtr_sorted(a), ndtr(a)
        assert np.array_equal(got, ref, equal_nan=True)
        # the same zero: 0.0 and -0.0 compare equal
        assert np.array_equal(np.signbit(got), np.signbit(ref))

    # branch edges on a: 1 and sqrt(2) (erf / erfc), 8 sqrt(2) (P/Q / R/S),
    # near 37.7 (erfc underflows to 0)
    @pytest.mark.parametrize("edge", [SQRT1_2, 1.0, 8.0, _X_UNDER])
    def test_neighbours_of_branch_edges(self, edge):
        a = edge / SQRT1_2
        below = [a]
        above = [a]
        for _ in range(64):
            below.append(np.nextafter(below[-1], -np.inf))
            above.append(np.nextafter(above[-1], np.inf))
        a = np.array(below + above)
        x = a * SQRT1_2
        assert (x < edge).any() and (x >= edge).any()  # the edge is inside
        self.assert_matches(np.concatenate([a, -a]))

    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0, 10.0])
    def test_random_normals(self, scale):
        self.assert_matches(np.random.default_rng(int(scale * 10)).normal(0.0, scale, 200_000))

    def test_special_values(self):
        self.assert_matches([0.0, -0.0, np.inf, -np.inf, np.nan, np.nan, 5e-324, -5e-324])

    def test_exponential_is_libm(self):
        # math.exp is libm's exp; numpy's float64 SIMD exp differs in the last bit
        x = np.linspace(1.0, _X_UNDER, 100_003)
        ref = np.array([math.exp(-(v * v)) for v in x])
        assert np.array_equal(_exp_neg_square(x), ref)


SIM_CONFIGS = {
    "main": {"map": {"zeros": [[0.0, 0.0], [0.5, 0.0]]}, "coefficients": {"kind": "ones"},
             "N": 8, "samples": 20_000, "seed": 3, "mode": "main"},
    "tail": {"map": {"zeros": [[0.0, 0.0], [0.0, 0.0]]},
             "coefficients": {"kind": "geometric", "ratio": 0.5, "length": 24},
             "N": 6, "samples": 20_000, "seed": 4, "mode": "tail"},
}


def run_python(code, *args):
    src = str(Path(innerclt.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-c", code, src, *args], check=True,
                          capture_output=True, text=True).stdout


def test_import_loads_no_scipy():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import innerclt, innerclt.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_python(code).strip() == "[]"


@pytest.mark.parametrize("mode", sorted(SIM_CONFIGS))
def test_clt_simulate_needs_no_scipy(tmp_path, mode):
    # whole clt simulate runs, KS statistics included, in fresh processes:
    # one loads no scipy module, one runs with scipy made unimportable, and
    # both write the same report
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SIM_CONFIGS[mode]))
    reports = []
    for block in ("", "sys.modules['scipy'] = None; "):
        out = tmp_path / f"out{len(reports)}"
        code = ("import sys; sys.path.insert(0, sys.argv[1]); " + block +
                "from innerclt import cli; "
                "cli.main(['clt', 'simulate', '--config', sys.argv[2], '--out', sys.argv[3]]); "
                "print(sorted(m for m, mod in sys.modules.items() "
                "if m.split('.')[0] == 'scipy' and mod is not None))")
        assert run_python(code, str(config), str(out)).splitlines()[-1] == "[]"
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["config"]["mode"] == mode


class TestQuadratureInvariants:
    @pytest.mark.parametrize("f,n", [(monomial(2), 4), (monomial(2), 8),
                                     (DEG2_HALF, 4), (DEG2_HALF, 7)])
    def test_l2_norm_is_half(self, f, n):
        coeffs = ONES.array(n)
        sigma2 = sigma_N_squared(ONES, f.taylor_at_zero().c1, n)

        def t(z):
            its = f.boundary_iterates(z, n)
            acc = np.zeros_like(z)
            for j in range(1, n + 1):
                acc = acc + coeffs[j - 1] * its[j]
            return acc / math.sqrt(2.0 * sigma2)

        val = integrate(lambda z: np.abs(t(z)) ** 2, tol=1e-12, degree=512).value
        assert abs(val.real - 0.5) < 1e-8

        sq = integrate(lambda z: t(z) ** 2, tol=1e-12, degree=512).value
        assert abs(sq) < 1e-10


class TestExactFourthMoment:
    """E|T_N|^4 of criterion 9's law, from exact correlation integrals.

    E|S_N|^4 = sum a_i a_j conj(a_k a_l) int f^i f^j conj(f^k f^l) dm, one
    integral per pair of factor multisets {i, j} and {k, l}, and
    E|T_N|^4 = E|S_N|^4 / (2 sigma_N^2)^2.  Criterion 9's Monte Carlo reads
    e4 = 0.4302 for deg2-half (exact 0.4290) and 0.4844 for z^2 (exact
    0.4861): each sits at the law's own value, within sampling noise.  So
    deg2-half's distance of 0.07 from the Gaussian 1/2, past the 0.05
    tolerance, is finite-N bias of the law, not noise.
    """

    @staticmethod
    def e_abs4(f, N):
        a = CoefficientSequence.ones(N)
        pairs = list(itertools.combinations_with_replacement(range(1, N + 1), 2))
        total = 0.0
        for (i, j), (k, l) in itertools.product(pairs, repeat=2):
            factors = sorted([(i, 1), (j, 1), (k, -1), (l, -1)])
            weight = (1 if i == j else 2) * (1 if k == l else 2)
            total += weight * _exact_signed_integral(
                f, [s for _, s in factors], [n for n, _ in factors])
        sigma2 = sigma_N_squared(a, f.taylor_at_zero().c1, N)
        return total, sigma2

    def test_z2_at_n18(self):
        # z^2 has f'(0) = 0: every integral is 0 or 1, so the sum is exact
        total, sigma2 = self.e_abs4(monomial(2), 18)
        assert total == 630 and sigma2 == 18.0
        assert total.real / (4 * sigma2 ** 2) == 35 / 72

    def test_deg2_half_at_n14(self):
        total, sigma2 = self.e_abs4(DEG2_HALF, 14)
        assert sigma2 == 38.000244140625 and total.imag == 0.0
        assert abs(total.real / (4 * sigma2 ** 2) - 0.4290056976559724) <= 1e-15


class TestGaussReport:
    def test_synthetic_target_law_passes(self):
        rng = np.random.default_rng(8)
        samples = (rng.normal(0, 0.5, 100_000)
                   + 1j * rng.normal(0, 0.5, 100_000))
        rep = gauss_report(tuple(samples), Tolerances(0.01, 0.01, 0.01, 0.03, 0.01))
        assert rep.passed, rep

    def test_sequence_reads_as_its_array(self):
        x = simulate(monomial(2), ONES, 8, 20_000, seed=1)
        assert gauss_report(tuple(x)) == gauss_report(x)

    def test_rejects_two_dimensional_samples(self):
        with pytest.raises(ValueError, match="1-D"):
            gauss_report(np.zeros((2, 10_000), dtype=complex))

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            gauss_report((0j,) * 100)

    def test_small_n_negative_control(self):
        d = simulate(monomial(2), ONES, 2, 50_000, seed=12345)
        rep = gauss_report(d)
        assert not rep.passed
        assert max(rep.ks_re, rep.ks_im) > 0.02

    def test_monotone_improvement_in_n(self):
        k6 = gauss_report(simulate(monomial(2), ONES, 6, 200_000, seed=12345))
        k18 = gauss_report(simulate(monomial(2), ONES, 18, 200_000, seed=12345))
        assert max(k18.ks_re, k18.ks_im) < max(k6.ks_re, k6.ks_im)

    def test_ks_noise_is_dkw_band(self):
        rep = gauss_report(simulate(monomial(2), ONES, 18, 200_000, seed=12345))
        assert rep.ks_noise == math.sqrt(math.log(2.0 / 0.05) / (2.0 * 200_000))
        assert round(rep.ks_noise, 4) == 0.0030
        assert rep.to_dict()["ks_noise"] == rep.ks_noise

    def test_tolerances_reject_bools(self):
        # float() would read true as a tolerance of 1.0
        with pytest.raises(ValueError, match="tolerance ks must be a number, got true"):
            Tolerances.from_dict({"ks": True})
        assert Tolerances.from_dict({"ks": 1}).ks == 1.0

    def test_report_serializes(self):
        rep = gauss_report(simulate(monomial(2), ONES, 8, 20_000, seed=1))
        d = rep.to_dict()
        assert set(d) >= {"mean", "e_abs2", "e_sq", "e_abs4", "ks_re", "ks_im",
                          "pass", "tolerances"}


class TestTailMode:
    def test_geometric_tail_second_moment(self):
        a = CoefficientSequence.geometric(0.9, 250)
        rep = gauss_report(simulate(monomial(2), a, 5, 50_000, seed=21, mode="tail"))
        assert abs(rep.e_abs2 - 0.5) < 0.02

    def test_single_term_degenerate_control(self):
        vals = [0.0] * 30
        vals[20] = 1.0
        vals[29] = 0.0
        a = CoefficientSequence.explicit(vals)
        rep = gauss_report(simulate(monomial(2), a, 10, 20_000, seed=1, mode="tail"))
        assert not rep.passed
        assert abs(rep.e_abs2 - 0.5) < 1e-9  # |T| = 1/sqrt(2) exactly

    # every check raises before the first orbit step
    @pytest.mark.parametrize("N", [1, 24])
    def test_bad_N(self, stepped, N):
        with pytest.raises(ValueError, match="stored length"):
            simulate(monomial(2), CoefficientSequence.geometric(0.5, 24), N,
                     20_000, seed=0, mode="tail")
        assert stepped == []

    def test_zero_tail(self, stepped):
        a = CoefficientSequence.explicit([1.0] * 5 + [0.0] * 5)
        with pytest.raises(ValueError, match="identically zero"):
            simulate(monomial(2), a, 6, 20_000, seed=0, mode="tail")
        assert stepped == []

    def test_heavy_truncation_guard(self, stepped):
        # 1/n falls off too slowly for the stored range to capture the tail
        a = CoefficientSequence.explicit([1.0 / n for n in range(1, 201)])
        with pytest.raises(HeavyTruncation):
            simulate(monomial(2), a, 50, 20_000, seed=0, mode="tail")
        assert stepped == []

    def test_minimum_samples(self, stepped):
        with pytest.raises(ValueError, match="M >= 1000"):
            simulate(monomial(2), CoefficientSequence.geometric(0.5, 24), 6,
                     999, seed=0, mode="tail")
        assert stepped == []
