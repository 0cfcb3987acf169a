"""Monte Carlo verification of the Gaussian limit of normalized iterate sums.

T_N = (sqrt(2) sigma_N)^{-1} sum_{n<=N} a_n f^n, sampled at uniform boundary
points, is compared against the circularly symmetric complex normal with
E|T|^2 = 1/2 (real and imaginary parts independent, each of variance 1/4).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct, CirclePoint
from .errors import HeavyTruncation, InsufficientSamples
from .quadrature import uniform_angles
from .variance import (CoefficientSequence, asymptotic_sigma_squared,
                       sigma_N_squared, tail_sigma_squared)

TARGET_ABS2 = 0.5
TARGET_ABS4 = 0.5   # E|W|^4 = 2 (E|W|^2)^2 for the circular Gaussian
TARGET_SD = 0.5     # per-coordinate standard deviation

KS_MIN_SAMPLES = 10_000
KS_NOISE_DELTA = 0.05  # failure probability of the DKW band reported as ks_noise
DEFAULT_TRUNCATION_TOL = 1e-6


@dataclass(frozen=True)
class Tolerances:
    mean: float = 0.01
    abs2: float = 0.01
    sq: float = 0.02
    abs4: float = 0.05
    ks: float = 0.02

    @classmethod
    def from_dict(cls, data: dict) -> "Tolerances":
        return cls(**{k: float(v) for k, v in data.items()})

    def to_dict(self) -> dict:
        return {"mean": self.mean, "abs2": self.abs2, "sq": self.sq,
                "abs4": self.abs4, "ks": self.ks}


@dataclass(frozen=True, eq=False)
class EmpiricalDistribution:
    """Samples of T_N (a read-only copy) with their provenance."""

    samples: np.ndarray
    N: int
    M: int
    seed: int
    normalization: str  # "main", "tail" or "corollary"

    def __post_init__(self):
        samples = np.array(self.samples, dtype=complex)
        if samples.ndim != 1:
            raise ValueError("samples must form a 1-D sequence")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def array(self) -> np.ndarray:
        return self.samples


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


def _accumulate(f: BlaschkeProduct, coeffs: np.ndarray, z: np.ndarray,
                start_power: int = 1) -> np.ndarray:
    """sum_j coeffs[j] f^{start_power + j}(z), one orbit pass."""
    orbit = f.orbit(z, start_power + len(coeffs) - 1)
    acc = np.zeros_like(z)
    for c, cur in zip(coeffs, itertools.islice(orbit, start_power, None)):
        acc = acc + c * cur
    return acc


def sample_T(f: BlaschkeProduct, a: CoefficientSequence, N: int,
             theta: CirclePoint) -> complex:
    """One value of T_N at the boundary point e^{i theta}."""
    sigma2 = sigma_N_squared(a, f.taylor_at_zero().c1, N)
    if sigma2 == 0.0:
        return 0.0 + 0j  # identically zero sum
    z = np.asarray(theta.value, dtype=complex)
    return complex(_accumulate(f, a.array(N), z)) / math.sqrt(2.0 * sigma2)


def simulate(f: BlaschkeProduct, a: CoefficientSequence, N: int, M: int,
             seed: int, mode: str = "main") -> EmpiricalDistribution:
    """M samples of the normalized sum at counter-seeded uniform angles.

    mode "main" normalizes by sqrt(2) sigma_N; "corollary" by
    sqrt(2 N sigma^2) with the asymptotic variance, testing that the two
    agree in the limit.
    """
    if M < 1000:
        raise ValueError("need M >= 1000")
    if not 1 <= N <= len(a):
        raise ValueError("need 1 <= N <= stored coefficient length")
    lam = f.taylor_at_zero().c1
    sigma2 = sigma_N_squared(a, lam, N)
    if sigma2 == 0.0:
        raise ValueError("normalized sum is identically zero")
    if mode == "main":
        scale = math.sqrt(2.0 * sigma2)
    elif mode == "corollary":
        scale = math.sqrt(2.0 * N * asymptotic_sigma_squared(lam))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    z = np.exp(1j * uniform_angles(seed, M))
    values = _accumulate(f, a.array(N), z) / scale
    return EmpiricalDistribution(samples=values, N=N, M=M, seed=seed,
                                 normalization=mode)


def _ks_normal(x: np.ndarray, sd: float) -> float:
    """Two-sided KS distance of the samples x from N(0, sd^2).

    The same arithmetic as scipy.stats.kstest(x, "norm", args=(0, sd))
    before its p-value, so the statistic agrees bit for bit.  scipy is
    imported here, so importing innerclt loads numpy only.
    """
    from scipy.special import ndtr

    cdf = ndtr(np.sort(x) / sd)
    n = len(cdf)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    return float(max(d_plus, d_minus))


def gauss_report(dist: EmpiricalDistribution,
                 tolerances: Tolerances = Tolerances()) -> GaussFitReport:
    """Moment and Kolmogorov-Smirnov diagnostics against the target law."""
    x = dist.array()
    if len(x) < KS_MIN_SAMPLES:
        raise InsufficientSamples(
            f"KS statistics need >= {KS_MIN_SAMPLES} samples, got {len(x)}")
    mean = complex(np.mean(x))
    e_abs2 = float(np.mean(np.abs(x) ** 2))
    e_sq = complex(np.mean(x ** 2))
    e_abs4 = float(np.mean(np.abs(x) ** 4))
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


def _truncation_estimate(mass: np.ndarray) -> float:
    """Geometric extrapolation of the squared-coefficient mass beyond storage."""
    last, prev = mass[-1], mass[-2]
    if last == 0.0:
        return 0.0
    if prev == 0.0 or last >= prev:
        return math.inf
    r = last / prev
    return last * r / (1.0 - r)


def tails_run(f: BlaschkeProduct, a: CoefficientSequence, N: int, M: int,
              seed: int, tolerances: Tolerances = Tolerances(),
              truncation_tol: float = DEFAULT_TRUNCATION_TOL) -> GaussFitReport:
    """Diagnostics for the tail sum (sqrt(2) sigma(N))^{-1} sum_{n>=N} a_n f^n.

    The stored sequence truncates the true tail; a geometric extrapolation
    of the squared-coefficient mass past storage must stay below
    truncation_tol times the stored tail mass.
    """
    if not 2 <= N <= len(a) - 1:
        raise ValueError("need 2 <= N <= stored length - 1")
    mass = np.abs(a.array()) ** 2
    tail_mass = float(np.sum(mass[N - 1:]))
    if tail_mass == 0.0:
        raise ValueError("stored tail is identically zero")
    est = _truncation_estimate(mass)
    if est > truncation_tol * tail_mass:
        raise HeavyTruncation(
            f"estimated truncated mass {est:.3e} exceeds "
            f"{truncation_tol:g} * tail mass {tail_mass:.3e}")
    sigma2 = tail_sigma_squared(a, f.taylor_at_zero().c1, N)
    z = np.exp(1j * uniform_angles(seed, M))
    coeffs = a.array()[N - 1:]
    values = _accumulate(f, coeffs, z, start_power=N) / math.sqrt(2.0 * sigma2)
    dist = EmpiricalDistribution(samples=values, N=N, M=M, seed=seed,
                                 normalization="tail")
    return gauss_report(dist, tolerances)
