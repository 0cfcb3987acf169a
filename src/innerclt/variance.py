"""Coefficient-side variance formulas and hypothesis checks.

Everything here lives on the sequence {a_n} and lambda = f'(0): the
variance sigma_N^2 with its cross terms, tail and asymptotic variants, the
Toeplitz sandwich bounding sigma_N^2 by S_N^2, hypothesis checkers for the
growth and quasiorthogonality conditions, and the greedy block/gap
splitting used to decouple the sum.

`sigma_N_squared` keeps its last value in an `lru_cache` of size one, keyed
by the sequence itself (a frozen, read-only object that compares by
identity), N and the exact bits of lambda.  `toeplitz_sandwich` and
`split_plan` take their sigma_N^2 from `sigma_N_squared`, so a sigma_N^2
followed by its sandwich and its split runs the O(N) kernel once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

from .blaschke import _accumulate
from .errors import RegimeTooSmall, SandwichViolation
from .quadrature import _grid, integrate

EPSILON = 0.2  # split_plan's block and gap mass exponent
ETA = 0.5  # sets split_plan's length exponents BETA and GAMMA
BETA = (ETA - EPSILON) / (1.0 - EPSILON)
GAMMA = (ETA + EPSILON) / (1.0 + EPSILON)
# CPython raises a complex to an integer power k by repeated squaring for
# |k| <= 100, and beyond that by the polar form pow(|z|, k) (cos, sin)(arg(z) k).
POWI_MAX = 100


@dataclass(frozen=True, eq=False)
class CoefficientSequence:
    """Complex coefficients a_1, ..., a_L (a read-only copy)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=complex)
        if values.ndim != 1:
            raise ValueError("coefficients must form a 1-D sequence")
        if not values.size:
            raise ValueError("coefficient sequence must be nonempty")
        if not np.all(np.isfinite(values)):
            raise ValueError("coefficients must be finite")
        values.flags.writeable = False
        # a view of a read-only array cannot be made writeable again, so the
        # sigma_N^2 memo, which keys on this object, cannot go stale
        object.__setattr__(self, "values", values.view())

    def __len__(self) -> int:
        return len(self.values)

    def array(self, N: int | None = None) -> np.ndarray:
        return self.values if N is None else self.values[:N]

    def s2(self, N: int | None = None) -> float:
        """S_N^2 = sum_{n<=N} |a_n|^2."""
        return float(np.sum(np.abs(self.array(N)) ** 2))

    @classmethod
    def ones(cls, n: int) -> "CoefficientSequence":
        return cls(np.ones(n, dtype=complex))

    @classmethod
    def explicit(cls, values) -> "CoefficientSequence":
        return cls(values)

    @classmethod
    def random_signs(cls, n: int, seed: int) -> "CoefficientSequence":
        rng = np.random.default_rng(seed)
        return cls(rng.choice([-1.0, 1.0], size=n))

    @classmethod
    def geometric(cls, r: float, n: int) -> "CoefficientSequence":
        """r, r^2, ..., r^n with the bits of the Python powers complex(r) ** k.

        Past POWI_MAX the polar form is taken term by term from `math`, the
        libm that complex ** k calls: np.power's last bits differ.  For
        r > 0 the angle is 0, so a term is (pow(r, k), +0.0).
        """
        if not 0.0 < abs(r) < 1.0:
            raise ValueError("ratio must satisfy 0 < |r| < 1")
        z = complex(r)
        head = min(n, POWI_MAX)
        values = np.zeros(max(n, 0), dtype=complex)
        values[:head] = [z ** k for k in range(1, head + 1)]
        if n > head:
            k = np.arange(head + 1, n + 1, dtype=float)
            length = np.array(list(map(math.pow, repeat(abs(z)), k.tolist())))
            angle = math.atan2(z.imag, z.real)
            if angle == 0.0:  # cos(+-0) = 1 and sin(+-0) = +-0
                values.real[head:] = length
                values.imag[head:] = math.copysign(0.0, angle)
            else:  # angle * k is the double product that complex ** k takes
                phase = (angle * k).tolist()
                values.real[head:] = length * np.array(list(map(math.cos, phase)))
                values.imag[head:] = length * np.array(list(map(math.sin, phase)))
        return cls(values)


def _cross_sum(arr: np.ndarray, lam: complex) -> complex:
    """sum_{n<m} conj(a_n) a_m lam^(m-n) in one pass.

    t_m = sum_{n<m} conj(a_n) lam^(m-n) obeys t_m = lam (t_{m-1} + conj(a_{m-1})).
    """
    lam = complex(lam)
    total = t = prev = 0j
    for x in arr.tolist():
        t = lam * (t + prev)
        total += x * t
        prev = x.conjugate()
    return total


def _sigma2(arr: np.ndarray, lam: complex) -> float:
    """Variance S^2 + 2 Re sum_{n<m} conj(a_n) a_m lam^(m-n) of sum a_n f^n."""
    return float(np.sum(np.abs(arr) ** 2)) + 2.0 * _cross_sum(arr, lam).real


def _check_lambda(lam: complex):
    if not abs(lam) < 1.0:  # also a NaN in either part
        raise ValueError("need |lambda| < 1")


def sigma_N_squared(a: CoefficientSequence, lam: complex, N: int) -> float:
    """sigma_N^2 = S_N^2 + 2 Re sum_k lam^k sum_n conj(a_n) a_{n+k}.

    The same (a, lambda, N) twice in a row computes once.
    """
    _check_lambda(lam)
    if not 1 <= N <= len(a):
        raise ValueError("need 1 <= N <= stored length")
    lam = complex(lam)
    return _memo_sigma2(np.complex128(lam).tobytes(), a, lam, N)


@lru_cache(maxsize=1)
def _memo_sigma2(key, a: CoefficientSequence, lam: complex, N: int) -> float:
    """sigma_N^2 of (a, lam, N); key, lam's bits, tells apart signed zeros,
    which complex equality takes as one."""
    return _sigma2(a.array(N), lam)


def tail_sigma_squared(a: CoefficientSequence, lam: complex, N: int) -> float:
    """Variance of the stored tail sum_{n>=N} a_n f^n."""
    _check_lambda(lam)
    if not 1 <= N <= len(a):
        raise ValueError("need 1 <= N <= stored length")
    return _sigma2(a.array()[N - 1:], lam)


def asymptotic_sigma_squared(lam: complex) -> float:
    """sigma^2 = Re (1 + lambda) / (1 - lambda); equals 1 at lambda = 0."""
    _check_lambda(lam)
    return ((1.0 + lam) / (1.0 - lam)).real


@dataclass(frozen=True)
class VarianceReport:
    N: int
    s2: float
    sigma2: float
    sandwich_c: float

    def __post_init__(self):
        c = self.sandwich_c
        # mathematically guaranteed; a violation means a computation bug
        if self.s2 > 0 and not (self.s2 / c - 1e-9 <= self.sigma2 <= c * self.s2 + 1e-9):
            raise SandwichViolation(
                f"sigma2={self.sigma2} outside [{self.s2 / c}, {c * self.s2}]")


def toeplitz_symbol_range(lam: complex):
    """(min, max) of s(z) = (1-|lam|^2)/|1-conj(lam) z|^2 on a 2^12-point circle grid.

    The grid is rotated so that the extremal points +-lam/|lam| are grid
    points; the extremes then match 1/C and C to rounding.
    """
    _check_lambda(lam)
    if lam == 0:
        return 1.0, 1.0
    phase = lam / abs(lam)
    z = phase * _grid(2 ** 12)
    s = (1.0 - abs(lam) ** 2) / np.abs(1.0 - np.conj(lam) * z) ** 2
    return float(np.min(s)), float(np.max(s))


def toeplitz_sandwich(a: CoefficientSequence, lam: complex, N: int) -> VarianceReport:
    """Build a VarianceReport and verify the symbol extremes give 1/C, C."""
    c = (1.0 + abs(lam)) / (1.0 - abs(lam))
    report = VarianceReport(N=N, s2=a.s2(N), sigma2=sigma_N_squared(a, lam, N),
                            sandwich_c=c)
    lo, hi = toeplitz_symbol_range(lam)
    if abs(lo - 1.0 / c) > 1e-9 or abs(hi - c) > 1e-9:
        raise SandwichViolation(
            f"symbol extremes ({lo}, {hi}) do not match (1/C, C) = ({1.0 / c}, {c})")
    return report


def l2_identity_check(f, a: CoefficientSequence, N: int) -> float:
    """Residual of quadrature ||sum a_n f^n||_2^2 against sigma_N_squared; by
    f-invariance of m the quadrature sums a_n f^{n-1}, through `_accumulate`,
    the kernel clt samples with."""
    coeffs = a.array(N)
    quad = integrate(lambda z: np.abs(_accumulate(f, coeffs, z, 0)) ** 2,
                     1e-11, 4 * f.degree ** (N - 1)).value.real
    direct = sigma_N_squared(a, f.taylor_at_zero().c1, N)
    return abs(quad - direct)


@dataclass(frozen=True)
class ConditionTrajectory:
    n_values: tuple
    ratios: tuple
    holds: bool


def growth_condition(a: CoefficientSequence, eta: float, n_list) -> ConditionTrajectory:
    """Trajectory of sup_{n<=N} |a_n|^2 / (S_N^2)^{(1-eta)/2}.

    The hypothesis holds when the trajectory decreases toward 0 over the
    tested range.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("need 0 < eta < 1")
    n_values = sorted(int(n) for n in n_list)
    if not n_values or n_values[0] < 1 or n_values[-1] > len(a):
        raise ValueError("N values must lie within the stored range")
    if a.s2(n_values[0]) == 0.0:  # S_N^2 grows with N
        raise ValueError("need nonzero coefficient mass up to N")
    ratios = []
    for n in n_values:
        top = float(np.max(np.abs(a.array(n)) ** 2))
        ratios.append(top / a.s2(n) ** ((1.0 - eta) / 2.0))
    holds = all(y <= x + 1e-12 for x, y in zip(ratios, ratios[1:])) \
        and ratios[-1] < ratios[0]
    return ConditionTrajectory(tuple(n_values), tuple(ratios), holds)


def quasiorthogonality(a: CoefficientSequence, n_list) -> ConditionTrajectory:
    """Trajectory of sup_{1<=k<N} |sum_n conj(a_n) a_{n+k}| / S_N^2."""
    n_values = sorted(int(n) for n in n_list)
    if not n_values or n_values[0] < 2 or n_values[-1] > len(a):
        raise ValueError("N values must lie in [2, stored length]")
    if a.s2(n_values[0]) == 0.0:
        raise ValueError("need nonzero coefficient mass up to N")
    ratios = []
    for n in n_values:
        # zero padding to >= 2n-1 keeps the circular lags 1..n-1 from wrapping
        spec = np.fft.fft(a.array(n), 1 << (2 * n - 1).bit_length())
        lags = np.fft.ifft(np.conj(spec) * spec)[1:n]
        ratios.append(float(np.max(np.abs(lags))) / a.s2(n))
    holds = all(y <= x + 1e-12 for x, y in zip(ratios, ratios[1:])) \
        and ratios[-1] < 0.5 * ratios[0]
    return ConditionTrajectory(tuple(n_values), tuple(ratios), holds)


@dataclass(frozen=True)
class SplitPlan:
    N: int
    p_n: float
    q_n: float
    xi_blocks: tuple   # (lo, hi) meaning indices lo+1 .. hi
    eta_gaps: tuple
    q_count: int
    block_masses: tuple
    gap_masses: tuple
    mass_bounds_ok: bool
    length_bounds_ok: bool
    partial_ratio: float


def split_plan(a: CoefficientSequence, N: int, lam: complex = 0.0) -> SplitPlan:
    """Greedy block/gap decomposition of {1..N} by accumulated mass.

    Blocks absorb at least p_N = S_N^{1+EPSILON} of squared-coefficient
    mass, the gaps between them at least q_N = S_N^{1-EPSILON}.  Construction stops
    when the remaining indices cannot complete a block.  The mass and
    length bounds are reported, not assumed, since they only kick in for
    large N.  The partial ratio sums the variances of all blocks and gaps
    against sigma_N^2.
    """
    _check_lambda(lam)
    if not 1 <= N <= len(a):
        raise ValueError("need 1 <= N <= stored length")
    s_n = math.sqrt(a.s2(N))
    if s_n == 0.0:
        raise ValueError("need nonzero coefficient mass up to N")
    p_n = s_n ** (1.0 + EPSILON)
    q_n = s_n ** (1.0 - EPSILON)
    mass = np.abs(a.array(N)) ** 2

    # blocks alternate with gaps, each the shortest stretch reaching its target;
    # Python floats add in the same order and with the same bits as np.float64
    stretches, pos, acc = [], 0, 0.0
    for end, m in enumerate(mass.tolist(), start=1):
        acc += m
        if acc >= (q_n if len(stretches) % 2 else p_n):
            stretches.append((pos, end))
            pos, acc = end, 0.0
    blocks, gaps = stretches[0::2], stretches[1::2]
    if not blocks:
        raise RegimeTooSmall(f"N={N} cannot supply a single block of mass {p_n:.3g}")
    if len(gaps) == len(blocks):
        gaps.pop()  # a trailing gap with no block after it decouples nothing

    block_masses = tuple(float(np.sum(mass[lo:hi])) for lo, hi in blocks)
    gap_masses = tuple(float(np.sum(mass[lo:hi])) for lo, hi in gaps)
    mass_ok = all(p_n <= m <= 2.0 * p_n for m in block_masses) \
        and all(q_n <= m <= 2.0 * q_n for m in gap_masses)
    length_ok = all(hi - lo >= p_n ** GAMMA for lo, hi in blocks) \
        and all(hi - lo >= q_n ** BETA for lo, hi in gaps)

    arr = a.array(N)
    covered = sum(_sigma2(arr[lo:hi], lam) for lo, hi in blocks + gaps)
    ratio = covered / sigma_N_squared(a, lam, N)
    return SplitPlan(N=N, p_n=p_n, q_n=q_n, xi_blocks=tuple(blocks),
                     eta_gaps=tuple(gaps), q_count=len(blocks),
                     block_masses=block_masses, gap_masses=gap_masses,
                     mass_bounds_ok=mass_ok, length_bounds_ok=length_ok,
                     partial_ratio=float(ratio))
