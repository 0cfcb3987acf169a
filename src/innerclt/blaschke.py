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


@dataclass(frozen=True)
class CirclePoint:
    """A point e^{i theta} on the unit circle, theta canonical in [0, 2pi)."""

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError(f"non-finite angle: {self.theta}")
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)

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

    # Public entry points validate their points; the private _eval, _step and
    # _derivative do not.  Iterating callers walk orbit, which validates once
    # and then calls _step, whose output is unimodular and so always valid.

    def _validate_points(self, w: np.ndarray):
        if not np.all(np.isfinite(w)):
            raise ValueError("non-finite evaluation point")
        if np.any(np.abs(w) > 1.0 + RADIUS_SLACK):
            raise ValueError("evaluation point outside the closed disc")
        for a in self.nonzero_zeros:
            pole = 1.0 / np.conj(a)
            if np.any(np.abs(w - pole) < POLE_GUARD):
                raise ValueError(f"evaluation point too close to pole {pole}")

    def _eval(self, arr: np.ndarray):
        out = self.rotation * arr ** self._origin_multiplicity
        for a, conj_a in self._factors:
            out = out * (a - arr) / (1.0 - conj_a * arr)
        return complex(out) if arr.ndim == 0 else out

    def _step(self, z):
        """One boundary step f(z) / |f(z)|, without validation."""
        out = self._eval(np.asarray(z, dtype=complex))
        return out / np.abs(out)

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
        arr = np.asarray(w, dtype=complex)
        m = self._origin_multiplicity
        factors = [(a - arr) / (1.0 - conj_a * arr) for a, conj_a in self._factors]
        prod_all = np.ones_like(arr)
        for b in factors:
            prod_all = prod_all * b
        out = m * arr ** (m - 1) * prod_all
        for i, (a, conj_a) in enumerate(self._factors):
            db = (abs(a) ** 2 - 1.0) / (1.0 - conj_a * arr) ** 2
            rest = np.ones_like(arr)
            for jdx, b in enumerate(factors):
                if jdx != i:
                    rest = rest * b
            out = out + arr ** m * db * rest
        out = self.rotation * out
        return complex(out) if arr.ndim == 0 else out

    def _circle_speed(self, z):
        """|f'(z)| for |z| = 1, as the Poisson sum m + sum (1 - |a|^2) / |z - a|^2.

        This is also d/dtheta arg f(e^{i theta}), the speed of the boundary map.
        """
        out = np.full(np.shape(z), float(self._origin_multiplicity))
        for a, _ in self._factors:
            out = out + (1.0 - abs(a) ** 2) / np.abs(z - a) ** 2
        return out

    def taylor_at_zero(self) -> TaylorJet:
        """Closed-form (c1, c2) = (f'(0), f''(0)/2) from the zero data."""
        m = self.origin_multiplicity
        b0 = complex(np.prod([a for a in self.nonzero_zeros])) if self.nonzero_zeros else 1.0 + 0j
        if m >= 3:
            return TaylorJet(0.0 + 0j, 0.0 + 0j)
        if m == 2:
            return TaylorJet(0.0 + 0j, self.rotation * b0)
        # m == 1: c1 = rot * B(0), c2 = rot * B'(0)
        b1 = b0 * sum((abs(a) ** 2 - 1.0) / a for a in self.nonzero_zeros)
        return TaylorJet(self.rotation * b0, self.rotation * b1)

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

    def iterate_boundary(self, p: CirclePoint, n: int, max_steps: int = 64) -> CirclePoint:
        if n < 0:
            raise ValueError("iteration count must be non-negative")
        if n > max_steps:
            raise ValueError(f"iteration count {n} exceeds cap {max_steps}")
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


def jet_of_iterate(f: BlaschkeProduct, n: int) -> TaylorJet:
    """Taylor jet of f^n at 0, by jet composition.

    g = f o h gives g'(0) = c1 h'(0) and g''(0)/2 = c2 h'(0)^2 + c1 h''(0)/2.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return TaylorJet(1.0 + 0j, 0.0 + 0j)
    jet = f.taylor_at_zero()
    c1, c2 = jet.c1, jet.c2
    h1, h2 = c1, c2
    for _ in range(n - 1):
        h1, h2 = c1 * h1, c2 * h1 ** 2 + c1 * h2
    return TaylorJet(h1, h2)


def iterate_derivative_on_circle(f: BlaschkeProduct, z, n: int):
    """(f^n)'(z) on the circle, by the chain rule along the orbit."""
    out = np.ones_like(np.asarray(z, dtype=complex))
    for cur in itertools.islice(f.orbit(z, n), n):
        out = out * f._derivative(cur)
    return out


def fit_size_bound_exponent(f: BlaschkeProduct, d_max: int = 32,
                            n_max: int = 20, radii=None) -> int:
    """Smallest d with |f^n(w)| < |f'(0)|^n (1-|w|)^{-d} on a radius sweep.

    Requires 0 < |f'(0)| < 1.  The fitted d is then usable as a global
    exponent for the iterate size bound.
    """
    a = abs(f.taylor_at_zero().c1)
    if not 0.0 < a < 1.0:
        raise ValueError("size bound requires 0 < |f'(0)| < 1")
    if radii is None:
        radii = np.linspace(0.05, 0.95, 19)
    angles = np.linspace(0.0, TWO_PI, 24, endpoint=False)
    w = (radii[:, None] * np.exp(1j * angles[None, :])).ravel()
    for d in range(1, d_max + 1):
        ok = True
        cur = w.copy()
        for n in range(1, n_max + 1):
            cur = f(cur)
            bound = a ** n * (1.0 - np.abs(w)) ** (-d)
            if np.any(np.abs(cur) >= bound):
                ok = False
                break
        if ok:
            return d
    raise ValueError(f"no exponent d <= {d_max} satisfies the size bound")
