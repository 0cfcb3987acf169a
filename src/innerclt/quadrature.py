"""Integration over the unit circle with respect to normalized Lebesgue measure.

Two routes: spectrally accurate uniform-grid quadrature (the periodic
trapezoid rule collapses to a plain average) with grid doubling, and a
seeded counter-based Monte Carlo fallback with standard-error reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, NonConvergence

TWO_PI = 2.0 * math.pi

# Points per integrand call, per orbit-walk block of clt and per CSV block:
# 8192 complex points are 128 KiB, so an orbit step's temporaries stay in
# cache and below numpy's 256 KiB threshold for reusing temporaries in place.
BLOCK = 8192
DEFAULT_MIN_GRID = 256
DEFAULT_MAX_GRID = 2 ** 18
INVARIANCE_QUAD_TOL = 1e-13


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    grid_size: int
    est_error: float


@dataclass(frozen=True)
class MonteCarloResult:
    value: complex
    samples: int
    stderr: float
    seed: int


@dataclass(frozen=True)
class InvarianceCheck:
    passed: bool
    residual: float


def circle_grid(n: int) -> np.ndarray:
    """n equispaced points e^{2 pi i k / n}."""
    return _nodes(np.arange(n), n)


def _nodes(k: np.ndarray, n: int) -> np.ndarray:
    # elementwise, so a node's bits do not depend on which k share the call
    return np.exp(1j * TWO_PI * k / n)


def next_power_of_two(n: int) -> int:
    return 1 << max(0, (int(n) - 1)).bit_length()


def degree_aware_grid(total_degree: int) -> int:
    """Starting grid for integrands of known harmonic content: 8 points per degree."""
    return min(DEFAULT_MAX_GRID, max(DEFAULT_MIN_GRID, next_power_of_two(8 * total_degree)))


def _level(g, n: int, start: int, step: int) -> np.ndarray:
    """g at the nodes circle_grid(n)[start::step], bit for bit, BLOCK nodes per call."""
    blocks = (_nodes(np.arange(lo, min(lo + step * BLOCK, n), step), n)
              for lo in range(start, n, step * BLOCK))
    # broadcast, so an integrand that returns a constant still works
    return np.concatenate([np.broadcast_to(np.asarray(g(z)), z.shape) for z in blocks])


def integrate(g, tol: float = 1e-12, degree: int = 0) -> QuadratureResult:
    """Average g over the circle, doubling the grid until |delta| <= tol.

    The first grid is degree_aware_grid(degree), for an integrand of that
    harmonic degree; a start grid at the cap DEFAULT_MAX_GRID would get one
    level and no error estimate, so it raises BudgetExceeded before g runs.
    g must accept a numpy array of points on the circle and be pointwise
    (its value at a point depends on that point only): the grids nest, so
    after the first level g is called only on the new odd points
    e^{2 pi i k / n}, k odd, and their values are interleaved with the
    previous level's.  Each integral thus evaluates g at grid_size points
    in total, at most BLOCK points per call, so the temporaries of g stay
    in cache.  The estimated error is the difference between the last two
    refinement levels; since the integrands here are analytic in an
    annulus, convergence is geometric and the estimate is conservative.
    """
    if tol < 1e-14:
        raise ValueError("tol must be >= 1e-14")
    grid = degree_aware_grid(degree)
    if grid == DEFAULT_MAX_GRID:
        raise BudgetExceeded(
            f"harmonic degree {degree} puts the start grid at the cap {DEFAULT_MAX_GRID}")
    vals = _level(g, grid, 0, 1)
    value = complex(np.mean(vals))
    delta = math.inf
    while grid < DEFAULT_MAX_GRID:
        grid *= 2
        odd = _level(g, grid, 1, 2)
        both = np.empty(grid, dtype=np.result_type(vals, odd))
        both[0::2] = vals
        both[1::2] = odd
        vals = both
        prev, value = value, complex(np.mean(vals))
        delta = abs(value - prev)
        if delta <= tol:
            return QuadratureResult(value, grid, delta)
    raise NonConvergence(
        f"quadrature did not reach tol={tol} at grid {grid} (delta={delta:.3e})",
        value=value, est_error=delta, grid_size=grid,
    )


# -- counter-based uniforms -------------------------------------------------

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def counter_uniform(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Uniforms in [0, 1) from a splitmix64-style counter hash.

    Output i depends only on (seed, start + i), so any partition of the
    index range across workers reproduces the same stream bit-for-bit.
    """
    idx = np.arange(start, start + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = (np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + (idx + np.uint64(1)) * _GAMMA) & _MASK64
        x ^= x >> np.uint64(30)
        x = (x * _MIX1) & _MASK64
        x ^= x >> np.uint64(27)
        x = (x * _MIX2) & _MASK64
        x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def uniform_angles(seed: int, count: int, start: int = 0) -> np.ndarray:
    return TWO_PI * counter_uniform(seed, count, start)


def mc_integrate(g, samples: int, seed: int) -> MonteCarloResult:
    """Monte Carlo average of g over the circle with reported stderr."""
    if samples < 100:
        raise ValueError("samples must be >= 100")
    z = np.exp(1j * uniform_angles(seed, samples))
    vals = np.asarray(g(z), dtype=complex)
    value = complex(np.mean(vals))
    if samples > 1:
        var = float(np.sum(np.abs(vals - value) ** 2)) / (samples - 1)
    else:
        var = 0.0
    return MonteCarloResult(value, samples, math.sqrt(var / samples), seed)


def check_invariance(f, observable) -> InvarianceCheck:
    """Residual of |int G(f(z)) dm - int G dm|; the check passes at <= 1e-10."""
    direct = integrate(observable, tol=INVARIANCE_QUAD_TOL)
    composed = integrate(lambda z: observable(f.boundary_step(z)), tol=INVARIANCE_QUAD_TOL)
    residual = abs(composed.value - direct.value)
    return InvarianceCheck(residual <= 1e-10, residual)
