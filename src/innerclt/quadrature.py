"""Integration over the unit circle with respect to normalized Lebesgue measure.

Spectrally accurate uniform-grid quadrature (the periodic trapezoid rule
collapses to a plain average) with grid doubling, and seeded counter-based
uniforms for sampling points on the circle.
"""

from __future__ import annotations

import functools
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
class InvarianceCheck:
    passed: bool
    residual: float


def circle_grid(n: int) -> np.ndarray:
    """n equispaced points e^{2 pi i k / n}."""
    # elementwise, so a node's bits do not depend on which k share the call
    return np.exp(1j * TWO_PI * np.arange(n) / n)


def next_power_of_two(n: int) -> int:
    return 1 << max(0, (int(n) - 1)).bit_length()


def degree_aware_grid(degree: int) -> int:
    """Starting grid for integrands of known harmonic content: 8 points per degree."""
    return min(DEFAULT_MAX_GRID, max(DEFAULT_MIN_GRID, next_power_of_two(8 * degree)))


@functools.cache
def _grid(n: int) -> np.ndarray:
    """circle_grid(n), computed the first time an integral needs it and then
    shared, read-only, by every later integral of the process; its contents
    depend on n alone, so no caller can see another's use.  The grids up to
    the cap hold 2 * DEFAULT_MAX_GRID nodes (8 MiB).  A node keeps its bits
    from grid to grid: TWO_PI * 2k / 2n only scales both operands of the
    division by 2, which is exact, so _grid(n)[0::2] has the bits of
    _grid(n // 2) and _grid(n)[1::2] are the nodes that level n adds."""
    grid = circle_grid(n)
    grid.flags.writeable = False
    return grid.view()  # a view of a read-only array cannot be made writeable again


def _level(g, nodes: np.ndarray, prev: np.ndarray | None = None) -> np.ndarray:
    """g at nodes, BLOCK nodes per call, interleaved with prev if given.

    Each block is a fresh copy, so an integrand that writes into its argument
    cannot change a cached grid.  Without prev, a float64 or complex128
    array that g returns for all the nodes at once is the level itself, not
    a copy; levels are only read after they are made, so g must not write
    into an array it has returned.  With prev, the values of the previous
    level, the result holds prev at even and g at odd positions; g's blocks
    are written there directly, so the level is never copied whole.  Every
    block of g must cast safely to the dtype of the first one.
    """
    step = 1 if prev is None else 2
    out = None
    for lo in range(0, len(nodes), BLOCK):
        z = nodes[lo:lo + BLOCK].copy()
        val = np.asarray(g(z))
        if out is None:
            if prev is None and val.shape == z.shape == nodes.shape and val.dtype.char in "dD":
                return val
            dtype = val.dtype if prev is None else np.result_type(prev, val)
            out = np.empty(step * len(nodes), dtype=dtype)
        # broadcasts, so an integrand that returns a constant still works
        np.copyto(out[step * lo + step - 1:step * (lo + len(z)):step], val, casting="safe")
    if prev is not None:
        out[0::2] = prev
    return out


def _mean(vals: np.ndarray) -> complex:
    """np.mean(vals) bit for bit.  For float64 and complex128 values that is
    add.reduce, also on the strided even entries of a level, divided by the
    count, without np.mean's Python wrapper; np.mean sums other types in
    another type or divides in a wider one."""
    if vals.dtype.char in "dD":
        return complex(np.add.reduce(vals) / len(vals))
    return complex(np.mean(vals))


def integrate(g, tol: float = 1e-12, degree: int = 0) -> QuadratureResult:
    """Average g over the circle, doubling the grid until |delta| <= tol.

    The first grid is degree_aware_grid(degree), for an integrand of that
    harmonic degree; a start grid at the cap DEFAULT_MAX_GRID would get one
    level and no error estimate, so it raises BudgetExceeded before g runs.
    g must accept a numpy array of points on the circle and be pointwise
    (its value at a point depends on that point only): the grids nest, so
    the first pass covers the first two levels (the start grid is the even
    half of the doubled grid), after which g is called only on the new odd
    points e^{2 pi i k / n}, k odd, and their values are interleaved with
    the previous level's.  Each integral thus evaluates g at grid_size
    points in total, at most BLOCK points per call, so the temporaries of g
    stay in cache.  The nodes come from _grid, which computes each grid
    once per process; g gets a fresh copy of each block.  The estimated
    error is the difference between the last two refinement levels; since
    the integrands here are analytic in an annulus, convergence is
    geometric and the estimate is conservative.  A non-finite value of g
    stays in every later level's mean, so a level that holds one raises
    NonConvergence at once, and so does a level whose finite values
    overflow its mean.
    """
    if not tol >= 1e-14:
        raise ValueError("tol must be >= 1e-14")
    grid = degree_aware_grid(degree)
    if grid == DEFAULT_MAX_GRID:
        raise BudgetExceeded(
            f"harmonic degree {degree} puts the start grid at the cap {DEFAULT_MAX_GRID}")
    grid *= 2
    vals = _level(g, _grid(grid))
    prev, value = _mean(vals[0::2]), _mean(vals)
    while True:
        delta = abs(value - prev)
        if delta <= tol:
            return QuadratureResult(value, grid, delta)
        if not math.isfinite(delta):
            what = "level mean" if np.isfinite(vals).all() else "integrand"
            raise NonConvergence(f"{what} is not finite on the grid of {grid} points",
                                 value=value, est_error=delta, grid_size=grid)
        if grid == DEFAULT_MAX_GRID:
            raise NonConvergence(
                f"quadrature did not reach tol={tol} at grid {grid} (delta={delta:.3e})",
                value=value, est_error=delta, grid_size=grid,
            )
        grid *= 2
        vals = _level(g, _grid(grid)[1::2], vals)
        prev, value = value, _mean(vals)


# -- counter-based uniforms -------------------------------------------------

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def counter_uniform(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Uniforms in [0, 1) from a splitmix64-style counter hash.

    Output i depends only on (seed, start + i), so any partition of the
    index range across workers reproduces the same stream bit-for-bit.
    uint64 arithmetic wraps mod 2^64, as splitmix64 needs.
    """
    idx = np.arange(start, start + count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + (idx + np.uint64(1)) * _GAMMA
        x ^= x >> np.uint64(30)
        x = x * _MIX1
        x ^= x >> np.uint64(27)
        x = x * _MIX2
        x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def uniform_angles(seed: int, count: int, start: int = 0) -> np.ndarray:
    return TWO_PI * counter_uniform(seed, count, start)


def check_invariance(f, observable) -> InvarianceCheck:
    """Residual of |int G(f(z)) dm - int G dm|; the check passes at <= 1e-10.

    The quadrature nodes lie on the circle, so f steps them unvalidated.
    """
    direct = integrate(observable, tol=INVARIANCE_QUAD_TOL)
    composed = integrate(lambda z: observable(f._step(z)), tol=INVARIANCE_QUAD_TOL)
    residual = abs(composed.value - direct.value)
    return InvarianceCheck(residual <= 1e-10, residual)
