"""The standard normal CDF of a sorted array, bit for bit cephes `ndtr`.

A numpy port of Stephen L. Moshier's cephes `ndtr`, `erf` and `erfc` (the
code behind `scipy.special.ndtr`): the same rational approximations P/Q,
R/S and T/U, the same Horner order, the same branch edges and the same
underflow cut at MAXLOG, so every value equals scipy's.  The exponential
is libm's `exp`, reached through numpy's complex `exp` of a real
argument (glibc's `cexp`, or numpy's own fallback, returns `exp(x) * 1`);
numpy's float64 `exp` has SIMD loops whose last bit differs from libm's.

The input must be sorted (NaN last, as `np.sort` leaves it): each branch
then covers one contiguous slice, found with `searchsorted`.
"""

from __future__ import annotations

import math

import numpy as np

SQRT1_2 = 7.07106781186547524401E-1
MAXLOG = 7.09782712893383996843E2

# erfc(x) = exp(-x^2) P(x) / Q(x), 1 <= x < 8
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
      7.46321056442269912687E0, 4.86371970985681366614E1,
      1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3,
      5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
      3.54937778887819891062E2, 9.75708501743205489753E2,
      1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
# erfc(x) = exp(-x^2) R(x) / S(x), x >= 8
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
      5.01905042251180477414E0, 6.16021097993053585195E0,
      7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
      1.20489539808096656605E1, 1.70814450747565897222E1,
      9.60896809063285878198E0, 3.36907645100081516050E0)
# erf(x) = x T(x^2) / U(x^2), |x| < 1
_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
      2.23200534594684319226E3, 7.00332514112805075473E3,
      5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
      4.59432382970980127987E3, 2.26290000613890934246E4,
      4.92673942608635921086E4)


def _underflow_edge() -> float:
    """The least x with -(x * x) < -MAXLOG, where cephes erfc returns 0."""
    x = math.sqrt(MAXLOG)
    while -(x * x) < -MAXLOG:
        x = math.nextafter(x, 0.0)
    while not -(x * x) < -MAXLOG:
        x = math.nextafter(x, math.inf)
    return x


_X_UNDER = _underflow_edge()
# Branch edges on x = a / sqrt(2).  Negative x is x <= edge, positive x is
# x >= edge, so the slices between them are (ascending): erfc = 0, R/S, P/Q,
# 1 - erf(|x|), erf, 1 - erf(|x|), P/Q, R/S, erfc = 0, NaN.
_NEG_EDGES = (-_X_UNDER, -8.0, -1.0, -SQRT1_2)
_POS_EDGES = (SQRT1_2, 1.0, 8.0, _X_UNDER)


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    ans = coef[0] * x
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef) -> np.ndarray:
    """_polevl with a leading coefficient 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _erf(x: np.ndarray) -> np.ndarray:
    z = x * x
    return x * _polevl(z, _T) / _p1evl(z, _U)


def _exp_neg_square(x: np.ndarray) -> np.ndarray:
    """libm exp(-(x * x)), elementwise."""
    return np.exp((-(x * x)).astype(complex)).real


def _erfc_low(x: np.ndarray) -> np.ndarray:
    """erfc for 1/sqrt(2) <= x < 1."""
    return 1.0 - _erf(x)


def _erfc_mid(x: np.ndarray) -> np.ndarray:
    """erfc for 1 <= x < 8."""
    return _exp_neg_square(x) * _polevl(x, _P) / _p1evl(x, _Q)


def _erfc_high(x: np.ndarray) -> np.ndarray:
    """erfc for 8 <= x < _X_UNDER."""
    return _exp_neg_square(x) * _polevl(x, _R) / _p1evl(x, _S)


def _erfc_zero(x: np.ndarray) -> np.ndarray:
    """erfc for x >= _X_UNDER."""
    return np.zeros_like(x)


# From the outermost slice inwards, the erfc of each tail pair of slices.
_TAILS = (_erfc_zero, _erfc_high, _erfc_mid, _erfc_low)


def ndtr_sorted(a: np.ndarray) -> np.ndarray:
    """Phi(a) for a sorted 1-D float64 array a; equal to scipy.special.ndtr(a).

    cephes: Phi(a) = 0.5 + 0.5 erf(x) for |x| < 1/sqrt(2), else 0.5 erfc(|x|)
    for x < 0 and 1 - 0.5 erfc(x) for x > 0, where x = a / sqrt(2).
    """
    x = a * SQRT1_2
    out = np.empty_like(x)
    edges = (0, *np.searchsorted(x, _NEG_EDGES, side="right"),
             *np.searchsorted(x, _POS_EDGES, side="left"),
             np.searchsorted(x, np.inf, side="right"), len(x))
    for k, erfc in enumerate(_TAILS):
        lo, hi = edges[k], edges[k + 1]
        if lo < hi:
            out[lo:hi] = 0.5 * erfc(-x[lo:hi])
        lo, hi = edges[8 - k], edges[9 - k]
        if lo < hi:
            out[lo:hi] = 1.0 - 0.5 * erfc(x[lo:hi])
    lo, hi = edges[4], edges[5]
    out[lo:hi] = 0.5 + 0.5 * _erf(x[lo:hi])
    out[edges[9]:] = np.nan
    return out
