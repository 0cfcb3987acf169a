"""Correlation integrals of iterates of a finite Blaschke product.

Covers the pair identity int conj(f^k) f^j dm = f'(0)^{j-k}, factorization
of products of squared-modulus block sums over separated index blocks, the
four-factor integrals with their cancellation/exactness cases, higher-order
correlations, and the gap-weighted decay exponent with its delta bookkeeping.

f(0) = 0 makes Lebesgue measure m f-invariant, so every integral is taken on
shifted indices, int prod (f^{n_j})^{+-} dm = int prod (f^{n_j - n_1})^{+-} dm
with f^0 = z: its grid and budget are set by the spread n_k - n_1, not n_k.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct
from .errors import SeparationViolation, ShapeMismatch
from .quadrature import _budgeted_integral


@dataclass(frozen=True)
class CorrelationSpec:
    """Signed iterate indices (eps_j, n_j) with n_1 < n_2 < ... < n_k."""

    signs: tuple
    indices: tuple

    def __post_init__(self):
        signs = tuple(int(s) for s in self.signs)
        indices = tuple(int(n) for n in self.indices)
        if len(signs) != len(indices) or not signs:
            raise ValueError("signs and indices must be nonempty and equal length")
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must be +1 or -1")
        if any(n < 1 for n in indices):
            raise ValueError("indices must be positive")
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError("indices must be strictly increasing")
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "indices", indices)

    @property
    def k(self) -> int:
        return len(self.indices)

    @property
    def gaps(self) -> tuple:
        return tuple(b - a for a, b in zip(self.indices, self.indices[1:]))

    @property
    def min_gap(self) -> int:
        return min(self.gaps) if self.k >= 2 else 0

    def conjugate(self) -> "CorrelationSpec":
        return CorrelationSpec(tuple(-s for s in self.signs), self.indices)


@dataclass(frozen=True)
class PhiReport:
    deltas: tuple
    phi: float
    lower_bound: float
    exact_zero: bool


@dataclass(frozen=True)
class BlockSum:
    """xi(A) = sum_{n in A} a_n f^n over an index block A."""

    block: tuple
    coefficients: tuple

    def __post_init__(self):
        block = tuple(int(n) for n in self.block)
        coeffs = tuple(complex(c) for c in self.coefficients)
        if not block or len(block) != len(coeffs):
            raise ValueError("block and coefficients must be nonempty and aligned")
        if any(n < 1 for n in block):
            raise ValueError("block indices must be positive")
        if len(set(block)) != len(block):
            raise ValueError("block indices must be distinct")
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def ones(cls, block) -> "BlockSum":
        block = tuple(block)
        return cls(block, (1.0 + 0j,) * len(block))


@dataclass(frozen=True)
class PairCorrelation:
    value: complex
    target: complex
    residual: float


@dataclass(frozen=True)
class FactorizationResult:
    lhs: complex
    rhs: complex
    residual: float


@dataclass(frozen=True)
class FourFactorResult:
    shape: str           # "I", "II", "III" or "IV"
    value: complex
    exponent: float      # decay exponent from the lemma (0 means plain constant)
    target: float | None  # exact modulus when the shape admits one
    residual: float | None


@dataclass(frozen=True)
class DecayCheck:
    fitted_c: float
    passed: bool
    vacuous: bool
    rows: tuple  # (k, q, phi, abs_value, bound_at_c1, within)


def _signed_integral(f: BlaschkeProduct, signs, powers, tol: float) -> complex:
    """int prod (f^{n_j})^{+-} dm, evaluated as int prod (f^{n_j - n_1})^{+-} dm.

    powers are nondecreasing: the factors multiply in order along the orbit.
    """
    powers = tuple(n - powers[0] for n in powers)
    signs_at = {n: [s for s, m in zip(signs, powers) if m == n] for n in powers}

    def g(z):
        out = np.ones_like(z)
        for n, cur in enumerate(f.orbit(z, powers[-1])):
            for s in signs_at.get(n, ()):
                out = out * (cur if s > 0 else np.conj(cur))
        return out

    return _budgeted_integral(g, sum(f.degree ** n for n in powers), tol)


def pair_correlation(f: BlaschkeProduct, k: int, j: int,
                     tol: float = 1e-12) -> PairCorrelation:
    """Quadrature check of int conj(f^k) f^j dm = f'(0)^{j-k}."""
    if not 1 <= k < j:
        raise ValueError("need 1 <= k < j")
    value = _signed_integral(f, (-1, 1), (k, j), tol)
    target = f.taylor_at_zero().c1 ** (j - k)
    return PairCorrelation(value, target, abs(value - target))


def iterate_pair_integral(f: BlaschkeProduct, n: int, j: int) -> complex:
    """Exact value of int f^n conj(f^j) dm from the pair identity."""
    lam = f.taylor_at_zero().c1
    if n == j:
        return 1.0 + 0j
    if n > j:
        return lam ** (n - j)
    return np.conj(lam) ** (j - n)


def block_product_factorization(f: BlaschkeProduct, blocks,
                                tol: float = 1e-11) -> FactorizationResult:
    """lhs = int prod |xi_k|^2 dm vs rhs = prod int |xi_k|^2 dm."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("need at least one block")
    for left, right in zip(blocks, blocks[1:]):
        if max(left.block) >= min(right.block):
            raise SeparationViolation(
                f"blocks {left.block} and {right.block} are not separated")

    # prod |xi_k|^2 over a run of blocks, on indices shifted by the run's
    # smallest one: the lhs runs all blocks, each rhs factor one.  Each xi_k
    # sums in its block's order over the iterates walked since the last block.
    def abs2_product(group, z):
        walked = min(group[0].block)
        walk = enumerate(f.orbit(z, max(group[-1].block) - walked), start=walked)
        out = np.ones_like(z, dtype=float)
        for b in group:
            its = dict(itertools.islice(walk, max(b.block) + 1 - walked))
            walked = max(b.block) + 1
            xi = np.zeros_like(z)
            for n, c in zip(b.block, b.coefficients):
                xi = xi + c * its[n]
            out = out * np.abs(xi) ** 2
        return out

    d = f.degree
    base = min(blocks[0].block)
    degree = sum(d ** (n - base) for b in blocks for n in b.block) \
        + sum(d ** (max(b.block) - base) for b in blocks)
    lhs = _budgeted_integral(lambda z: abs2_product(blocks, z), degree, tol)
    rhs = 1.0 + 0j
    for b in blocks:
        spread = max(b.block) - min(b.block)
        rhs *= _budgeted_integral(lambda z, b=b: abs2_product([b], z), 2 * d ** spread, tol)
    return FactorizationResult(lhs, rhs, abs(lhs - rhs))


def four_factor(f: BlaschkeProduct, signs, indices,
                tol: float = 1e-11) -> FourFactorResult:
    """Evaluate one of the four-factor integrals and classify its bound.

    signs/indices are raw length-4 lists.  A repeated adjacent index with
    matching sign encodes the squared factor of shapes II and III.
    """
    signs = tuple(int(s) for s in signs)
    indices = tuple(int(n) for n in indices)
    if len(signs) != 4 or len(indices) != 4:
        raise ShapeMismatch("four factors required")
    if any(s not in (-1, 1) for s in signs) or any(n < 1 for n in indices):
        raise ShapeMismatch("invalid signs or indices")
    if any(b < a for a, b in zip(indices, indices[1:])):
        raise ShapeMismatch("indices must be nondecreasing")

    a = abs(f.taylor_at_zero().c1)
    distinct = sorted(set(indices))
    value = _signed_integral(f, signs, indices, tol)

    if len(distinct) == 4:
        n1, n2, n3, n4 = indices
        if signs[0] == -signs[1] and signs[2] == signs[3]:
            return FourFactorResult("I", value, 0.0, 0.0, abs(value))
        if signs[0] * signs[1] == -1 and signs[2] * signs[3] == -1:
            target = a ** (n2 - n1 + n4 - n3)
            return FourFactorResult("IV", value, float(n2 - n1 + n4 - n3),
                                    target, abs(abs(value) - target))
        exponent = float(n2 - n1 + n4 - n3) if n4 - n3 > 2 else float(n3 - n1)
        return FourFactorResult("IV", value, exponent, None, None)

    if len(distinct) == 3:
        n1, n2, n3 = distinct
        if indices[1] == indices[2] and signs[1] == signs[2]:
            return FourFactorResult("II", value, float(n3 - n1), None, None)
        if indices[0] == indices[1] and signs[0] == signs[1]:
            if n2 == n1 + 1 and n3 <= n2 + 2:
                return FourFactorResult("III", value, 0.0, None, None)
            return FourFactorResult("III", value, float(n3 - n1), None, None)

    raise ShapeMismatch(f"pattern signs={signs} indices={indices} matches no shape")


def higher_correlation(f: BlaschkeProduct, spec: CorrelationSpec,
                       tol: float = 5e-8) -> complex:
    """Quadrature value of int prod_j f^{eps_j n_j} dm."""
    return _signed_integral(f, spec.signs, spec.indices, tol)


# -- delta bookkeeping for the decay exponent -------------------------------
#
# The exponent recursion consumes factors left to right.  A pure product
# state strips its two leading factors: opposite leading signs collapse
# exactly (delta pattern 1, 0), equal leading signs hand off to a z^2
# moment state (delta 1).  A moment state consumes one factor per step at
# delta 1/2 and may drop back to a pure product (the zero-moment branch);
# branch choices are resolved by taking the weakest guaranteed exponent,
# with exactly-vanishing branches discarded.


def _phi_product(signs, j, gaps):
    k = len(signs)
    r = k - j
    if r == 1:
        return [], True
    if r == 2:
        return [1.0], False
    if signs[j] * signs[j + 1] == -1:
        sub, zero = _phi_product(signs, j + 2, gaps)
        return [1.0, 0.0] + sub, zero
    sub, zero = _phi_moment(signs, j + 2, gaps)
    return [1.0] + sub, zero


def _phi_moment(signs, j, gaps):
    k = len(signs)
    if j == k - 1:
        return [0.5], False
    candidates = []
    sub_i, zero_i = _phi_product(signs, j + 1, gaps)
    if not zero_i:
        candidates.append([0.5, 0.0] + sub_i)
    sub_z, _ = _phi_moment(signs, j + 1, gaps)
    candidates.append([0.5] + sub_z)
    start = j - 1

    def weighted(deltas):
        return sum(d * g for d, g in zip(deltas, gaps[start:]))

    return min(candidates, key=weighted), False


def _structure_ok(deltas) -> bool:
    if any(d not in (0.0, 0.5, 1.0) for d in deltas):
        return False
    if deltas[0] != 1.0:
        return False
    if deltas[-1] < 0.5:
        return False
    for j in range(1, len(deltas)):
        if (deltas[j] == 1.0) != (deltas[j - 1] == 0.0):
            return False
    return True


def phi_exponent(spec: CorrelationSpec) -> PhiReport:
    """Replay the decay recursion and report the realized delta path."""
    if spec.k < 2:
        raise ValueError("need at least two factors")
    gaps = spec.gaps
    deltas, exact_zero = _phi_product(list(spec.signs), 0, list(gaps))
    if exact_zero and deltas and deltas[-1] == 0.0:
        # the collapsed path ended in an exactly-vanishing integral; patch
        # the final coefficient so the reported path stays well-formed
        deltas[-1] = 1.0 if (len(deltas) >= 2 and deltas[-2] == 0.0) else 0.5
    deltas = tuple(deltas)
    phi = float(sum(d * g for d, g in zip(deltas, gaps)))
    lower = spec.k * spec.min_gap / 4.0
    if not _structure_ok(deltas):
        raise AssertionError(f"delta path {deltas} violates structure rules")
    if phi + 1e-12 < lower:
        raise AssertionError(f"phi {phi} below lower bound {lower}")
    return PhiReport(deltas=deltas, phi=phi, lower_bound=lower,
                     exact_zero=exact_zero)


def decay_check(f: BlaschkeProduct, specs, q: int | None = None,
                c_cap: float = 100.0) -> DecayCheck:
    """Fit the smallest C with |I| <= C^k k! a^phi over a family of specs."""
    specs = list(specs)
    a = abs(f.taylor_at_zero().c1)
    if a == 0.0:
        rows = []
        for spec in specs:
            value = higher_correlation(f, spec)
            rows.append((spec.k, spec.min_gap, math.inf, abs(value), 0.0, True))
        return DecayCheck(0.0, True, True, tuple(rows))
    fitted = 0.0
    rows = []
    for spec in specs:
        if q is not None and spec.min_gap < q:
            raise ValueError(f"spec {spec.indices} has gap below q={q}")
        value = higher_correlation(f, spec)
        report = phi_exponent(spec)
        scale = math.factorial(spec.k) * a ** report.phi
        c_here = (abs(value) / scale) ** (1.0 / spec.k) if abs(value) > 0 else 0.0
        fitted = max(fitted, c_here)
        rows.append((spec.k, spec.min_gap, report.phi, abs(value), scale,
                     c_here <= c_cap))
    return DecayCheck(fitted, fitted <= c_cap, False, tuple(rows))
