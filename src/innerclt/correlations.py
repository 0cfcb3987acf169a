"""Correlation integrals of iterates of a finite Blaschke product.

Covers the pair identity int conj(f^k) f^j dm = f'(0)^{j-k}, factorization
of products of squared-modulus block sums over separated index blocks, the
four-factor integrals with their cancellation/exactness cases, higher-order
correlations, and the gap-weighted decay exponent with its delta bookkeeping.

f(0) = 0 makes Lebesgue measure m f-invariant, so every integral is taken on
shifted indices, int prod (f^{n_j})^{+-} dm = int prod (f^{n_j - n_1})^{+-} dm
with f^0 = z: its grid and budget are set by the spread n_k - n_1, not n_k.
Exact targets are closed forms or else `_exact_signed_integral`, with no grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct, taylor_table
from .clark import _transfer
from .errors import SeparationViolation, ShapeMismatch
from .quadrature import integrate
from .variance import _sigma2

C_CAP = 100.0  # largest fitted decay constant that decay_check passes


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
    target: complex      # exact value, by Clark disintegration
    residual: float      # |value - target|


@dataclass(frozen=True)
class DecayCheck:
    fitted_c: float
    passed: bool
    vacuous: bool
    rows: tuple  # (k, q, phi, abs_value, bound_at_c1, within)


def _signed_integrand(f: BlaschkeProduct, signs, powers):
    """z -> prod (f^{n_j}(z))^{+-}, the factors multiplied in order along the orbit.

    powers are nondecreasing.  A conjugated factor is a fresh temporary and
    goes on the left of its product, as in the Blaschke kernel, so a point's
    bits do not depend on how many points share the call.  z are quadrature
    nodes, on the circle, so the orbit is walked without validation.
    """
    signs_at = [[] for _ in range(powers[-1] + 1)]  # the signs at each step of the orbit
    for s, n in zip(signs, powers):
        signs_at[n].append(s)

    def g(z):
        out = np.ones_like(z)
        for step_signs, cur in zip(signs_at, f._walk(z, powers[-1])):
            for s in step_signs:
                out = out * cur if s > 0 else np.conj(cur) * out
        return out

    return g


def _signed_integral(f: BlaschkeProduct, signs, powers, tol: float) -> complex:
    """int prod (f^{n_j})^{+-} dm, evaluated as int prod (f^{n_j - n_1})^{+-} dm.

    powers are nondecreasing: the factors multiply in order along the orbit.
    """
    powers = tuple(n - powers[0] for n in powers)
    return integrate(_signed_integrand(f, signs, powers), tol,
                     sum(f.degree ** n for n in powers)).value


def _exact_signed_integral(f: BlaschkeProduct, signs, powers) -> complex:
    """int prod (f^{n_j})^{+-} dm by Clark disintegration; powers nondecreasing.

    On the circle the product is prod_l (f^{d_l})^{p_l}, p_l the signs summed
    at each distinct d_l.  `_transfer` integrates the Laurent polynomial
    carried so far over the Clark measures of f^{d_{l+1} - d_l}, at alpha =
    f^{d_{l+1}}; the integral is the constant term after the last level.
    """
    p = {}
    for s, n in zip(signs, powers):
        p[n] = p.get(n, 0) + s
    levels = list(p)
    gaps = [b - a for a, b in zip(levels, levels[1:])]
    # no exponent carried exceeds the factor count in modulus
    tables = {g: taylor_table(f, g, len(signs)) for g in set(gaps)}
    poly = {p[levels[0]]: 1.0 + 0j}
    for gap, n in zip(gaps, levels[1:]):
        poly = _transfer(poly, tables[gap], p[n])
    return complex(poly.get(0, 0j))


def pair_correlation(f: BlaschkeProduct, k: int, j: int) -> PairCorrelation:
    """Quadrature check of int conj(f^k) f^j dm = f'(0)^{j-k}."""
    if not 1 <= k < j:
        raise ValueError("need 1 <= k < j")
    value = _signed_integral(f, (-1, 1), (k, j), 1e-12)
    target = f.taylor_at_zero().c1 ** (j - k)
    return PairCorrelation(value, target, abs(value - target))


def block_product_factorization(f: BlaschkeProduct, blocks) -> FactorizationResult:
    """lhs = int prod |xi_k|^2 dm by quadrature vs rhs = prod int |xi_k|^2 dm,
    each factor exact: the variance of its block's coefficients, laid out
    densely with zeros at the indices the block skips."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("need at least one block")
    for left, right in zip(blocks, blocks[1:]):
        if max(left.block) >= min(right.block):
            raise SeparationViolation(
                f"blocks {left.block} and {right.block} are not separated")

    # prod |xi_k|^2 on indices shifted by the smallest one, base (its[n -
    # base] is f^{n - base}).  Each xi_k sums in its block's order.
    base = min(blocks[0].block)

    def abs2_product(z):
        its = list(f._walk(z, max(blocks[-1].block) - base))
        out = np.ones_like(z, dtype=float)
        for b in blocks:
            xi = np.zeros_like(z)
            for n, c in zip(b.block, b.coefficients):
                xi = xi + c * its[n - base]
            out = out * np.abs(xi) ** 2
        return out

    degree = sum(f.degree ** (n - base) for b in blocks for n in b.block) \
        + sum(f.degree ** (max(b.block) - base) for b in blocks)
    lhs = integrate(abs2_product, 1e-11, degree).value
    lam = f.taylor_at_zero().c1
    rhs = 1.0 + 0j
    for b in blocks:
        dense = np.zeros(max(b.block) - min(b.block) + 1, dtype=complex)
        dense[np.array(b.block) - min(b.block)] = b.coefficients
        rhs *= _sigma2(dense, lam)
    return FactorizationResult(lhs, rhs, abs(lhs - rhs))


def four_factor(f: BlaschkeProduct, signs, indices) -> FourFactorResult:
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

    shape, exponent = _four_factor_shape(signs, indices)
    value = _signed_integral(f, signs, indices, 1e-11)
    target = _exact_signed_integral(f, signs, indices)
    return FourFactorResult(shape, value, exponent, target, abs(value - target))


def _four_factor_shape(signs, indices):
    """(shape, exponent) of a four-factor pattern.

    Decided from signs and indices alone, so a pattern that matches no
    shape raises ShapeMismatch before anything is integrated.
    """
    distinct = sorted(set(indices))
    if len(distinct) == 4:
        n1, n2, n3, n4 = indices
        if signs[0] == -signs[1] and signs[2] == signs[3]:
            return "I", 0.0
        if signs[0] != signs[1] or n4 - n3 > 2:  # opposite leading signs, or a wide last gap
            return "IV", float(n2 - n1 + n4 - n3)
        return "IV", float(n3 - n1)

    if len(distinct) == 3:
        n1, n2, n3 = distinct
        if indices[1] == indices[2] and signs[1] == signs[2]:
            return "II", float(n3 - n1)
        if indices[0] == indices[1] and signs[0] == signs[1]:
            return "III", 0.0 if n2 == n1 + 1 and n3 <= n2 + 2 else float(n3 - n1)

    raise ShapeMismatch(f"pattern signs={signs} indices={indices} matches no shape")


def higher_correlation(f: BlaschkeProduct, spec: CorrelationSpec) -> complex:
    """Quadrature value of int prod_j f^{eps_j n_j} dm, to tol 5e-8."""
    return _signed_integral(f, spec.signs, spec.indices, 5e-8)


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


def decay_check(f: BlaschkeProduct, specs) -> DecayCheck:
    """Fit the smallest C with |I| <= C^k k! a^phi over specs; pass at C <= C_CAP."""
    a = abs(f.taylor_at_zero().c1)
    fitted = 0.0
    rows = []
    for spec in specs:
        value = higher_correlation(f, spec)
        if a == 0.0:  # f'(0) = 0: no decay rate to fit, every row passes
            rows.append((spec.k, spec.min_gap, math.inf, abs(value), 0.0, True))
            continue
        report = phi_exponent(spec)
        scale = math.factorial(spec.k) * a ** report.phi
        c_here = (abs(value) / scale) ** (1.0 / spec.k) if abs(value) > 0 else 0.0
        fitted = max(fitted, c_here)
        rows.append((spec.k, spec.min_gap, report.phi, abs(value), scale,
                     c_here <= C_CAP))
    return DecayCheck(fitted, fitted <= C_CAP, a == 0.0, tuple(rows))
