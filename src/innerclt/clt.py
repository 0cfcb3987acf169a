"""Monte Carlo verification of the Gaussian limit of normalized iterate sums.

T_N = (sqrt(2) sigma_N)^{-1} sum_{n<=N} a_n f^n, sampled at uniform boundary
points, is compared against the circularly symmetric complex normal with
E|T|^2 = 1/2 (real and imaginary parts independent, each of variance 1/4).
One path serves every normalized sum: `simulate` returns the samples of the
main, corollary or tail sum as a read-only array, and `gauss_report` reads
them.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._ndtr import ndtr_sorted
from .blaschke import BlaschkeProduct, CirclePoint, _accumulate
from .errors import HeavyTruncation, InsufficientSamples
from .quadrature import BLOCK, uniform_angles
from .variance import (CoefficientSequence, asymptotic_sigma_squared,
                       sigma_N_squared, tail_sigma_squared)

TARGET_ABS2 = 0.5
TARGET_ABS4 = 0.5   # E|W|^4 = 2 (E|W|^2)^2 for the circular Gaussian
TARGET_SD = 0.5     # per-coordinate standard deviation

KS_MIN_SAMPLES = 10_000
KS_NOISE_DELTA = 0.05  # failure probability of the DKW band reported as ks_noise
TRUNCATION_TOL = 1e-6


@dataclass(frozen=True)
class Tolerances:
    mean: float = 0.01
    abs2: float = 0.01
    sq: float = 0.02
    abs4: float = 0.05
    ks: float = 0.02

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"tolerance {name} must be finite and >= 0, got {value}")

    @classmethod
    def from_dict(cls, data: dict) -> "Tolerances":
        for k, v in data.items():  # float() would read true as 1.0
            if isinstance(v, bool):
                raise ValueError(f"tolerance {k} must be a number, got {str(v).lower()}")
        return cls(**{k: float(v) for k, v in data.items()})

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class GaussFitReport:
    mean: complex
    e_abs2: float
    e_sq: complex
    e_abs4: float
    ks_re: float
    ks_im: float
    ks_noise: float  # DKW band sqrt(ln(2/delta) / (2M)), delta = KS_NOISE_DELTA
    passed: bool
    tolerances: Tolerances

    def to_dict(self) -> dict:
        return {
            "mean": [self.mean.real, self.mean.imag],
            "e_abs2": self.e_abs2,
            "e_sq": [self.e_sq.real, self.e_sq.imag],
            "e_abs4": self.e_abs4,
            "ks_re": self.ks_re,
            "ks_im": self.ks_im,
            "ks_noise": self.ks_noise,
            "pass": self.passed,
            "tolerances": self.tolerances.to_dict(),
        }


def _sample(f: BlaschkeProduct, coeffs: np.ndarray, out: np.ndarray, seed: int,
            scale: float, start_power: int = 1) -> np.ndarray:
    """_accumulate / scale at the len(out) counter-seeded uniform angles of
    seed, written into out.

    The samples are computed BLOCK (quadrature's block, 8192 points) at a
    time into the preallocated out, so an orbit step's working set is a
    few 128 KiB complex arrays whatever M is.  Sample i depends only on
    (seed, i) and the orbit step is pointwise bit for bit, so the values do
    not depend on BLOCK.  The array is returned read-only.
    """
    M = len(out)
    for lo in range(0, M, BLOCK):
        hi = min(lo + BLOCK, M)
        z = np.exp(1j * uniform_angles(seed, hi - lo, start=lo))
        out[lo:hi] = _accumulate(f, coeffs, z, start_power) / scale
    out.flags.writeable = False
    return out


def sample_T(f: BlaschkeProduct, a: CoefficientSequence, N: int,
             theta: CirclePoint) -> complex:
    """One value of T_N at the boundary point e^{i theta}."""
    sigma2 = sigma_N_squared(a, f.taylor_at_zero().c1, N)
    if sigma2 == 0.0:
        return 0.0 + 0j  # identically zero sum
    z = np.asarray(theta.value, dtype=complex)
    return complex(_accumulate(f, a.array(N), z)) / math.sqrt(2.0 * sigma2)


def _truncation_estimate(mass: np.ndarray) -> float:
    """Geometric extrapolation of the squared-coefficient mass beyond storage."""
    last, prev = mass[-1], mass[-2]
    if last == 0.0:
        return 0.0
    if prev == 0.0 or last >= prev:
        return math.inf
    r = last / prev
    return last * r / (1.0 - r)


def simulate(f: BlaschkeProduct, a: CoefficientSequence, N: int, M: int,
             seed: int, mode: str = "main") -> np.ndarray:
    """M samples of a normalized sum at counter-seeded uniform angles, as
    one read-only complex array.

    mode "main" samples T_N; "corollary" the same sum over sqrt(2 N sigma^2)
    with the asymptotic variance, testing that the two agree in the limit;
    "tail" (sqrt(2) sigma(N))^{-1} sum_{n>=N} a_n f^n over the stored a_n,
    whose geometric extrapolation of the squared-coefficient mass past
    storage must stay below TRUNCATION_TOL times the stored tail mass.
    Every check raises before the first orbit step.
    """
    coeffs, out, scale, start_power = _sampling_plan(f, a, N, M, mode)
    return _sample(f, coeffs, out, seed, scale, start_power)


def _sampling_plan(f: BlaschkeProduct, a: CoefficientSequence, N: int, M: int,
                   mode: str) -> tuple:
    """(coefficients, empty samples array, scale, start power) of a
    `simulate` run: every check that simulate makes, and no orbit step."""
    if M < 1000:
        raise ValueError("need M >= 1000")
    try:
        out = np.empty(M, dtype=complex)
    except (MemoryError, ValueError) as exc:  # more than numpy can allocate or index
        raise ValueError(f"cannot hold M = {M} samples: {exc}") from None
    lam = f.taylor_at_zero().c1
    if mode == "tail":
        if not 2 <= N <= len(a) - 1:
            raise ValueError("need 2 <= N <= stored length - 1")
        mass = np.abs(a.array()) ** 2
        tail_mass = float(np.sum(mass[N - 1:]))
        if tail_mass == 0.0:
            raise ValueError("stored tail is identically zero")
        est = _truncation_estimate(mass)
        if est > TRUNCATION_TOL * tail_mass:
            raise HeavyTruncation(
                f"estimated truncated mass {est:.3e} exceeds "
                f"{TRUNCATION_TOL:g} * tail mass {tail_mass:.3e}")
        return a.array()[N - 1:], out, math.sqrt(2.0 * tail_sigma_squared(a, lam, N)), N
    if not 1 <= N <= len(a):
        raise ValueError("need 1 <= N <= stored coefficient length")
    sigma2 = sigma_N_squared(a, lam, N)
    if sigma2 == 0.0:
        raise ValueError("normalized sum is identically zero")
    if mode == "main":
        scale = math.sqrt(2.0 * sigma2)
    elif mode == "corollary":
        scale = math.sqrt(2.0 * N * asymptotic_sigma_squared(lam))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return a.array(N), out, scale, 1


def _ks_normal(x: np.ndarray, sd: float) -> float:
    """Two-sided KS distance of the samples x from N(0, sd^2).

    The same arithmetic as scipy.stats.kstest(x, "norm", args=(0, sd))
    before its p-value, and `ndtr_sorted` is scipy.special.ndtr bit for
    bit, so the statistic agrees bit for bit without importing scipy.
    After one sort the column is walked BLOCK rows at a time: the CDF, i/n
    and both one-sided distances exist for one block only, and a maximum
    does not depend on how the rows are grouped.
    """
    s = np.sort(x)
    n = len(s)
    d_plus, d_minus = [], []
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        cdf = ndtr_sorted(s[lo:hi] / sd)
        d_plus.append(np.max(np.arange(lo + 1.0, hi + 1.0) / n - cdf))
        d_minus.append(np.max(cdf - np.arange(float(lo), hi) / n))
    return float(max(np.max(d_plus), np.max(d_minus)))


def require_ks_samples(count: int):
    """Raise InsufficientSamples if count is below KS_MIN_SAMPLES, the least
    gauss_report reads; a caller can check this before it samples."""
    if count < KS_MIN_SAMPLES:
        raise InsufficientSamples(
            f"KS statistics need >= {KS_MIN_SAMPLES} samples, got {count}")


def gauss_report(x, tolerances: Tolerances = Tolerances()) -> GaussFitReport:
    """Moment and Kolmogorov-Smirnov diagnostics of the samples x against the
    target law.  x is any 1-D sequence; a complex array is read without a copy.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim != 1:
        raise ValueError("samples must form a 1-D sequence")
    require_ks_samples(len(x))
    mean = complex(np.mean(x))
    e_sq = complex(np.mean(x ** 2))
    r = np.abs(x)
    e_abs2 = float(np.mean(r ** 2))
    e_abs4 = float(np.mean(r ** 4))
    del r  # freed before the KS sort
    ks_re = _ks_normal(x.real, TARGET_SD)
    ks_im = _ks_normal(x.imag, TARGET_SD)
    ks_noise = math.sqrt(math.log(2.0 / KS_NOISE_DELTA) / (2.0 * len(x)))
    t = tolerances
    passed = (abs(mean) <= t.mean
              and abs(e_abs2 - TARGET_ABS2) <= t.abs2
              and abs(e_sq) <= t.sq
              and abs(e_abs4 - TARGET_ABS4) <= t.abs4
              and ks_re <= t.ks and ks_im <= t.ks)
    return GaussFitReport(mean=mean, e_abs2=e_abs2, e_sq=e_sq, e_abs4=e_abs4,
                          ks_re=ks_re, ks_im=ks_im, ks_noise=ks_noise,
                          passed=passed, tolerances=t)

