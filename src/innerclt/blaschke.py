"""Finite Blaschke products fixing the origin.

The product is parametrized as

    f(z) = rotation * z^m * prod_i (a_i - z) / (1 - conj(a_i) z)

over the nonzero zeros a_i, with m >= 1 the multiplicity of the zero at the
origin.  This makes f(0) = 0 structural.  All evaluation routines accept
scalars or numpy arrays.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

ZERO_MODULUS_CAP = 1.0 - 1e-12
ROTATION_TOL = 1e-14
POLE_GUARD = 1e-12
RADIUS_SLACK = 1e-9
ITERATION_CAP = 64
SIZE_FIT_MAX_EXPONENT = 32
SIZE_FIT_MAX_POWER = 20


@dataclass(frozen=True)
class CirclePoint:
    """A point e^{i theta} on the unit circle, theta canonical in [0, 2pi)."""

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError(f"non-finite angle: {self.theta}")
        # a tiny negative angle rounds to 2 pi, which the second pass maps to 0
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI % TWO_PI)

    @property
    def value(self) -> complex:
        return cmath.exp(1j * self.theta)

    @classmethod
    def from_complex(cls, z: complex) -> "CirclePoint":
        if z == 0:
            raise ValueError("cannot project 0 to the circle")
        return cls(cmath.phase(z))


@dataclass(frozen=True)
class TaylorJet:
    """First two Taylor data of f at 0: c1 = f'(0), c2 = f''(0)/2."""

    c1: complex
    c2: complex


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product with f(0) = 0.

    zeros is a multiset (tuple) of points in the open disc; at least one of
    them must be exactly 0.  rotation is a unimodular constant.
    """

    zeros: tuple
    rotation: complex = 1.0 + 0.0j

    def __post_init__(self):
        zeros = tuple(complex(a) for a in self.zeros)
        rotation = complex(self.rotation)
        if not zeros:
            raise ValueError("a Blaschke product needs at least one zero")
        for a in zeros:
            if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                raise ValueError(f"non-finite zero: {a}")
            if abs(a) >= ZERO_MODULUS_CAP:
                raise ValueError(f"zero too close to the circle: |{a}| >= {ZERO_MODULUS_CAP}")
        if not any(a == 0 for a in zeros):
            raise ValueError("at least one zero must be exactly 0 (f(0) = 0)")
        if abs(abs(rotation) - 1.0) > ROTATION_TOL:
            raise ValueError(f"rotation must be unimodular, got |{rotation}| = {abs(rotation)}")
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "rotation", rotation)
        nonzero = tuple(a for a in zeros if a != 0)
        object.__setattr__(self, "_nonzero_zeros", nonzero)
        object.__setattr__(self, "_origin_multiplicity", len(zeros) - len(nonzero))
        # (a, conj(a)) per nonzero zero, for the factor (a - z) / (1 - conj(a) z)
        object.__setattr__(self, "_factors", tuple((a, np.conj(a)) for a in nonzero))
        # the poles 1 / conj(a); a subnormal zero's pole overflows, and one
        # past every representable point needs no guard
        with np.errstate(over="ignore", invalid="ignore"):
            poles = 1.0 / np.conj(np.array(nonzero, dtype=complex))
        object.__setattr__(self, "_poles", poles[np.isfinite(poles)])

    @property
    def degree(self) -> int:
        return len(self.zeros)

    @property
    def origin_multiplicity(self) -> int:
        return self._origin_multiplicity

    @property
    def nonzero_zeros(self) -> tuple:
        return self._nonzero_zeros

    @property
    def not_rotation(self) -> bool:
        return self.degree >= 2

    # -- evaluation ---------------------------------------------------------

    # Public entry points validate their points; the private _eval, _step,
    # _walk and _derivative do not.  orbit validates once and then walks
    # _step, whose output is unimodular and so always valid.  The package's
    # own circle points (quadrature nodes, clt's sample points) go straight
    # to _step and _walk.

    def _validate_points(self, w: np.ndarray):
        if not np.all(np.isfinite(w)):
            raise ValueError("non-finite evaluation point")
        if np.any(np.abs(w) > 1.0 + RADIUS_SLACK):
            raise ValueError("evaluation point outside the closed disc")
        for pole in self._poles:
            if np.any(np.abs(w - pole) < POLE_GUARD):
                raise ValueError(f"evaluation point too close to pole {pole}")

    def _eval(self, arr: np.ndarray):
        # Each complex product keeps its temporary on the left.  On arrays
        # of 256 KiB or more numpy reuses a temporary operand in place and,
        # for a commutative ufunc, swaps it to the left; a fused-multiply-add
        # complex product is not bitwise commutative, so writing the other
        # order would make a point's bits depend on how many points share
        # the call.  A simple zero at the origin skips np.power, whose
        # complex loop is ten times slower than a multiply for z ** 1 and
        # gives the same bits at every nonzero point.  For m >= 3, z ** m
        # and a chain of multiplies differ bitwise, so ** stays.
        m = self._origin_multiplicity
        out = (arr if m == 1 else arr ** m) * self.rotation
        for a, conj_a in self._factors:
            out = (a - arr) * out / (1.0 - conj_a * arr)
        return complex(out) if arr.ndim == 0 else out

    def _step(self, z):
        """One boundary step f(z) / |f(z)|, without validation.

        numpy divides by the complex-cast modulus r + 0j as
        ((re + im * 0) * (1 / r), (im - re * 0) * (1 / r)), so a product with
        1 / r has the same bits wherever no component is zero; there a zero
        could change sign, and the block is divided as numpy divides it.
        """
        out = self._eval(np.asarray(z, dtype=complex))
        r = np.abs(out)
        if np.ndim(out) == 0 or (out.view(np.float64) == 0).any():
            return out / r
        return out * (1.0 / r)

    def __call__(self, w):
        arr = np.asarray(w, dtype=complex)
        self._validate_points(arr)
        return self._eval(arr)

    def derivative(self, w):
        """Analytic derivative f'(w), by the product rule over factors."""
        arr = np.asarray(w, dtype=complex)
        self._validate_points(arr)
        return self._derivative(arr)

    def _derivative(self, w):
        # (out, dout) = (p, p') for the product p of z^m and the factors so
        # far; each factor b updates them by the product rule, temporaries
        # on the left as in _eval.
        arr = np.asarray(w, dtype=complex)
        m = self._origin_multiplicity
        out, dout = arr ** m, m * arr ** (m - 1)
        for a, conj_a in self._factors:
            den = 1.0 - conj_a * arr
            b = (a - arr) / den
            dout = b * dout + (abs(a) ** 2 - 1.0) / den ** 2 * out
            out = b * out
        out = self.rotation * dout
        return complex(out) if arr.ndim == 0 else out

    def _circle_speed(self, z):
        """|f'(z)| for |z| = 1, as the Poisson sum m + sum (1 - |a|^2) / |z - a|^2.

        This is also d/dtheta arg f(e^{i theta}), the speed of the boundary map.
        """
        out = np.full(np.shape(z), float(self._origin_multiplicity))
        for a, _ in self._factors:
            out = out + (1.0 - abs(a) ** 2) / np.abs(z - a) ** 2
        return out

    def _series(self, order: int) -> list:
        """[z^k] f for k = 0 .. order, built factor by factor from the zeros.

        A series r times (a - z) / (1 - conj(a) z) is the h with
        h (1 - conj(a) z) = r (a - z): h_k = r_k a - r_{k-1} + conj(a) h_{k-1}.
        The rotation multiplies last, so f'(0) = rot * (a_1 a_2 ...).
        """
        m = self._origin_multiplicity
        rest = [1.0 + 0j] + [0j] * (order - m) if m <= order else []
        for a in self._nonzero_zeros:
            conj_a, r_prev, h = a.conjugate(), 0j, 0j
            for k, r in enumerate(rest):
                h = r * a - r_prev + conj_a * h
                r_prev, rest[k] = r, h
        return [0j] * min(m, order + 1) + [self.rotation * r for r in rest]

    def taylor_at_zero(self) -> TaylorJet:
        """(c1, c2) = (f'(0), f''(0)/2), read from the series of f."""
        _, c1, c2 = self._series(2)
        return TaylorJet(c1, c2)

    # -- boundary dynamics --------------------------------------------------

    def boundary_step(self, z):
        """One boundary iteration step, projected back onto the circle."""
        arr = np.asarray(z, dtype=complex)
        self._validate_points(arr)
        return self._step(arr)

    def orbit(self, z, n: int):
        """Yield f^0 = z, f^1, ..., f^n on the circle; z is validated at the call."""
        cur = np.asarray(z, dtype=complex)
        self._validate_points(cur)
        return self._walk(cur, n)

    def _walk(self, cur, n: int):
        yield cur
        for _ in range(n):
            cur = self._step(cur)
            yield cur

    def boundary_orbit(self, z, n: int):
        """f^n on the circle, renormalizing to modulus 1 after each step."""
        for cur in self.orbit(z, n):
            pass
        return cur

    def boundary_iterates(self, z, n_max: int) -> dict:
        """All f^1 .. f^{n_max} at the given circle points, keyed by n."""
        return {n: cur for n, cur in enumerate(self.orbit(z, n_max)) if n}

    def iterate_boundary(self, p: CirclePoint, n: int) -> CirclePoint:
        if n < 0:
            raise ValueError("iteration count must be non-negative")
        if n > ITERATION_CAP:
            raise ValueError(f"iteration count {n} exceeds cap {ITERATION_CAP}")
        if n == 0:
            return p
        z = self.boundary_orbit(np.asarray(p.value), n)
        return CirclePoint.from_complex(complex(z))

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "zeros": [[a.real, a.imag] for a in self.zeros],
            "rotation": [self.rotation.real, self.rotation.imag],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "BlaschkeProduct":
        zeros = tuple(complex(re, im) for re, im in data["zeros"])
        rot = data.get("rotation", [1.0, 0.0])
        return cls(zeros=zeros, rotation=complex(rot[0], rot[1]))

    @classmethod
    def from_json(cls, text: str) -> "BlaschkeProduct":
        return cls.from_dict(json.loads(text))


def monomial(power: int) -> BlaschkeProduct:
    """The map z -> z^power."""
    if power < 1:
        raise ValueError("power must be >= 1")
    return BlaschkeProduct(zeros=(0.0 + 0j,) * power)


def taylor_table(f: BlaschkeProduct, power: int, order: int) -> np.ndarray:
    """The (order+1)^2 matrix C[k, j] = [z^k] (f^power)^j.

    Column j of the table of f is the j-th power of f's series, truncated
    after z^order.  The table of f o g is C_g @ C_f, so the table of f^power
    is the power-th matrix power of the table of f.
    """
    if power < 0:
        raise ValueError("power must be non-negative")
    if order < 0:
        raise ValueError("order must be non-negative")
    series = np.array(f._series(order))
    table = np.zeros((order + 1, order + 1), dtype=complex)
    table[0, 0] = 1.0
    for j in range(1, order + 1):
        table[:, j] = np.convolve(table[:, j - 1], series)[:order + 1]
    return np.linalg.matrix_power(table, power)


def iterate_derivative_on_circle(f: BlaschkeProduct, z, n: int):
    """(f^n)'(z) on the circle, by the chain rule along the orbit.

    Each factor f'(f^k(z)) is a fresh temporary and goes on the left of its
    product, as in `_eval`.
    """
    out = np.ones_like(np.asarray(z, dtype=complex))
    for cur in itertools.islice(f.orbit(z, n), n):
        out = f._derivative(cur) * out
    return out


def fit_size_bound_exponent(f: BlaschkeProduct) -> int:
    """Smallest d with |f^n(w)| < |f'(0)|^n (1-|w|)^{-d} on a radius sweep.

    Requires 0 < |f'(0)| < 1.  The fitted d is then usable as a global
    exponent for the iterate size bound.
    """
    a = abs(f.taylor_at_zero().c1)
    if not 0.0 < a < 1.0:
        raise ValueError("size bound requires 0 < |f'(0)| < 1")
    radii = np.linspace(0.05, 0.95, 19)
    angles = np.linspace(0.0, TWO_PI, 24, endpoint=False)
    w = (radii[:, None] * np.exp(1j * angles[None, :])).ravel()
    iterates = [f(w)]
    for _ in range(SIZE_FIT_MAX_POWER - 1):
        iterates.append(f(iterates[-1]))
    sizes = np.abs(iterates)
    scale = a ** np.arange(1, SIZE_FIT_MAX_POWER + 1)[:, None]
    for d in range(1, SIZE_FIT_MAX_EXPONENT + 1):
        if np.all(sizes < scale * (1.0 - np.abs(w)) ** (-d)):
            return d
    raise ValueError(f"no exponent d <= {SIZE_FIT_MAX_EXPONENT} satisfies the size bound")
