"""Aleksandrov-Clark measures of finite Blaschke products.

For a finite Blaschke product f with f(0) = 0 and alpha on the circle, the
measure mu_alpha is purely atomic: its atoms are the deg(f) boundary
solutions of f(zeta) = alpha, each carrying weight 1 / |f'(zeta)|.  The
atoms of f^n are found by pulling alpha back n times through the d inverse
branches of f.  Each level solves f(zeta) = beta on the circle in closed form
(d-th roots for rot z^d, a half-angle form for degree 2) or, for any other
map, as eigenvalues of companion matrices, which Newton steps polish.
Since f(0) = 0 the moments are Taylor coefficients, int conj(zeta)^l d mu_alpha
= sum_j conj(alpha)^j [z^l] (f^n)^j: `_transfer` reads them from
`blaschke.taylor_table(f, n, l)` for the moment checks and the exact
correlation integrals alike.

`clark_measure` keeps the last measure it solved in an `lru_cache` of size
one, keyed by the map's stored bits `BlaschkeProduct._bits`, alpha's angle
and the power.  The moment checks take their measure from `clark_measure`,
so a measure followed by its first and second moments solves the atoms
once.  The cache holds one triple only, so a different (f, alpha, power)
always solves afresh, and a failed solve leaves it as it was.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .blaschke import TWO_PI, BlaschkeProduct, CirclePoint, taylor_table
from .errors import BudgetExceeded, RootBracketFailure
from .quadrature import integrate

ATOM_COUNT_CAP = 4096
# the largest power any map of degree >= 2 reaches under the atom cap (2^12
# atoms at d = 2).  A rotation has one atom at every power, but each power is
# one more level of pullback, with its time and its rounding, so it stops here too.
POWER_CAP = ATOM_COUNT_CAP.bit_length() - 1
NEWTON_STEPS = 3
WEIGHT_SUM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ClarkMeasure:
    """Atoms as a read-only (n, 2) array of (angle, weight), angles in [0, 2 pi)."""

    alpha: CirclePoint
    atoms: np.ndarray

    def __post_init__(self):
        atoms = np.array(self.atoms, dtype=float)
        if atoms.ndim != 2 or atoms.shape[1] != 2:
            raise ValueError("atoms must be an (n, 2) array of (angle, weight) rows")
        # a tiny negative angle rounds to 2 pi, which the second pass maps to 0
        atoms[:, 0] = atoms[:, 0] % TWO_PI % TWO_PI
        atoms.flags.writeable = False
        # a view of a read-only array cannot be made writeable again, so the
        # measure that clark_measure's memo keeps cannot be written into
        object.__setattr__(self, "atoms", atoms.view())

    @property
    def angles(self) -> np.ndarray:
        return self.atoms[:, 0]

    @property
    def weights(self) -> np.ndarray:
        return self.atoms[:, 1]

    def moment(self, order: int) -> complex:
        """int z^order d mu_alpha as an atomic sum."""
        return complex(np.sum(self.weights * np.exp(1j * order * self.angles)))

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha.theta,
            "atoms": self.atoms.tolist(),
        }


class BoundaryAtomSolver:
    """Solves f^n(zeta) = alpha by pulling alpha back through the inverse branches of f.

    For |beta| = 1 the d solutions of f(zeta) = beta all lie on the circle.
    Each of the n levels finds them for every point of the previous level at
    once, in closed form where one exists: the d-th roots for a monomial
    rot z^d, a half-angle form for degree 2.  Other maps take the roots of
    the degree-d polynomial rot z^m prod (a_i - z) - beta prod (1 - conj(a_i) z)
    as eigenvalues of a stack of companion matrices, and only those roots
    take Newton steps in the angle.  The weight 1 / |(f^n)'| is the product
    of 1 / |f'| along each branch.

    The closed forms take no Newton step.  Up to the atom cap their angles
    lie within 2e-15 rad, and their weights within 4e-15 relative, of the
    companion roots after the Newton steps, and for zeros of modulus up to
    0.999 f^n maps each atom to within 4 ulp(2 pi) |(f^n)'| of alpha.
    """

    def __init__(self, f: BlaschkeProduct, power: int = 1):
        if power < 1:
            raise ValueError("power must be >= 1")
        self.f = f
        self.power = power
        # any d >= 2 passes the cap by POWER_CAP + 1, so no huge d^power is formed
        if f.degree ** min(power, POWER_CAP + 1) > ATOM_COUNT_CAP:
            raise BudgetExceeded(f"degree {f.degree}^{power} exceeds atom cap {ATOM_COUNT_CAP}")
        if power > POWER_CAP:
            raise BudgetExceeded(f"power {power} exceeds the power cap {POWER_CAP}")
        if not f.nonzero_zeros:
            self._root_shift = TWO_PI * np.arange(f.degree) - np.angle(f.rotation)
            return
        if f.degree == 2:
            (a,) = f.nonzero_zeros
            self._a = a
            self._arg_rot = np.angle(f.rotation)
            # 1 - |a|^2 in exact integers, rounded once: near the circle a
            # rounded |a|^2 would leave few correct digits
            (nx, dx), (ny, dy) = a.real.as_integer_ratio(), a.imag.as_integer_ratio()
            self._q = ((dx * dy) ** 2 - (nx * dy) ** 2 - (ny * dx) ** 2) / (dx * dy) ** 2
            return
        num, den = np.ones(1, dtype=complex), np.ones(1, dtype=complex)
        for a in f.nonzero_zeros:
            num = np.convolve(num, [1.0, -a])
            den = np.convolve(den, [-np.conj(a), 1.0])
        # divided by its leading coefficient rot (-1)^k, the polynomial is
        # z^d + sum_j (num_j - beta den_j) z^j, coefficients highest first
        lead = f.rotation * (-1) ** len(f.nonzero_zeros)
        self._num = np.append(num, np.zeros(f.origin_multiplicity))[1:]
        self._den = np.append(np.zeros(f.degree - den.size), den) / lead
        self._eye = np.eye(f.degree - 1)

    def _preimages(self, theta: np.ndarray) -> tuple:
        """The inverse branches of f at the points e^{i theta}.

        Returns the angles of the d solutions of f(zeta) = e^{i theta} and
        |f'| there, each of shape theta.shape + (d,).  The closed forms give
        both directly; the eigenvalues of the other maps take NEWTON_STEPS
        Newton steps in the angle first.
        """
        f, d = self.f, self.f.degree
        if not f.nonzero_zeros:
            # rot z^d = e^{i theta} at the angles (theta - arg rot + 2 pi k) / d
            child = (theta[..., None] + self._root_shift) / d
            return child, np.full(child.shape, float(d))
        if d == 2:
            # z (a - z) = w (1 - conj(a) z) for w = e^{i theta} / rot.  The
            # roots multiply to w, so they are v e^{+-i psi} for v^2 = w, with
            # cos psi = Re(a conj(v)) and, as |a conj(v)| = |a|,
            # sin psi = sqrt(1 - |a|^2 + t^2) for t = Im(a conj(v)).
            v = np.exp(0.5j * (theta - self._arg_rot))[..., None]
            av = self._a * np.conj(v)
            t = av.imag
            sin_psi = np.sqrt(self._q + t * t)
            e_psi = av.real + 1j * sin_psi
            child = np.angle(np.concatenate((v * e_psi, v * np.conj(e_psi)), axis=-1))
            # |z - a| = sin psi -+ t at the two roots and (sin psi)^2 - t^2 =
            # 1 - |a|^2, so |f'| = 1 + (1 - |a|^2) / |z - a|^2 needs only the
            # larger distance, sin psi + |t|, which does not cancel
            far = sin_psi + np.abs(t)
            slow = 1.0 + self._q / (far * far)
            fast = 1.0 + far * far / self._q
            return child, np.where(t > 0, np.concatenate((fast, slow), axis=-1),
                                   np.concatenate((slow, fast), axis=-1))
        beta = np.exp(1j * theta)[..., None]
        # the companion row holds -p for the monic z^d + p_1 z^{d-1} + ... + p_d
        row = beta * self._den - self._num
        companion = np.zeros(theta.shape + (d, d), dtype=complex)
        companion[..., 0, :] = row
        companion[..., 1:, :-1] = self._eye
        child = np.angle(np.linalg.eigvals(companion))
        conj_beta = np.conj(beta)
        # d/dtheta arg f(e^{i theta}) = |f'(e^{i theta})| on the circle
        for _ in range(NEWTON_STEPS):
            z = np.exp(1j * child)
            child = child - np.angle(f._eval(z) * conj_beta) / f._circle_speed(z)
        return child, f._circle_speed(np.exp(1j * child))

    def _pullback(self, alpha_thetas) -> tuple:
        """Angles in [0, 2 pi) and weights of the atoms, one row per alpha."""
        theta = np.asarray(alpha_thetas, dtype=float).reshape(-1, 1)
        weights = np.ones_like(theta)
        for _ in range(self.power):
            child, speed = self._preimages(theta)
            theta = child.reshape(len(theta), -1)
            weights = (weights[..., None] / speed).reshape(theta.shape)
        return theta % TWO_PI % TWO_PI, weights  # twice: -tiny % 2 pi is 2 pi

    def atom_angles(self, alpha_theta: float) -> np.ndarray:
        """All solutions theta of f^n(e^{i theta}) = e^{i alpha_theta}."""
        return self.atoms(alpha_theta)[0]

    def atoms(self, alpha_theta: float):
        """Atom angles in ascending order and their weights 1 / |(f^n)'|."""
        theta, weights = self._pullback([alpha_theta])
        order = np.argsort(theta[0])
        return theta[0, order], weights[0, order]


def _measure_key(f: BlaschkeProduct, alpha: CirclePoint, power) -> tuple:
    """f's exact bits, alpha's angle and power: equal keys solve alike.

    BlaschkeProduct equality is not enough, since it takes 0.5+0j and 0.5-0j
    for the same zero; alpha.theta lies in [0, 2 pi), never -0.0.
    """
    return f._bits, alpha.theta, power


@lru_cache(maxsize=1)
def _solve(key, f: BlaschkeProduct, alpha: CirclePoint, power: int) -> ClarkMeasure:
    """The measure of (f, alpha, power).  key, their `_measure_key`, makes the
    cache tell apart the zeros that BlaschkeProduct equality takes as one."""
    angles, weights = BoundaryAtomSolver(f, power).atoms(alpha.theta)
    total = float(np.sum(weights))
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise RootBracketFailure(
            f"clark weights sum to {total}, not 1; atom solve is suspect")
    return ClarkMeasure(alpha=alpha, atoms=np.column_stack((angles, weights)))


def clark_measure(f: BlaschkeProduct, alpha: CirclePoint, power: int = 1) -> ClarkMeasure:
    """The Clark measure of f^power at spectral parameter alpha.

    The same (f, alpha, power) twice in a row returns the same object, solved once.
    """
    return _solve(_measure_key(f, alpha, power), f, alpha, power)


def _transfer(poly: dict, table: np.ndarray, p_next: int) -> dict:
    """One level of Clark disintegration of the Laurent polynomial {s: c} in w.

    table is `taylor_table(f, gap, K)`, C[s, j] = [z^s] phi^j for phi = f^gap,
    with K >= every |s|.  w^s integrates over phi's Clark measure mu_alpha
    to sum_{j<=s} alpha^j conj(C[s, j]) for s > 0, the conjugate for s < 0
    and 1 for s = 0; the result, in alpha, is multiplied by alpha^p_next.
    """
    rows, out = table.tolist(), {}
    for s, c in poly.items():
        if s == 0:
            out[p_next] = out.get(p_next, 0) + c
        for j in range(1, abs(s) + 1):
            e, t = (p_next + j, rows[s][j].conjugate()) if s > 0 else (p_next - j, rows[-s][j])
            out[e] = out.get(e, 0) + c * t
    return out


def _moment_residual(f: BlaschkeProduct, alpha: CirclePoint, power: int, ell: int) -> float:
    """|int z^ell d mu_alpha - its Taylor-table value| for the measures of f^power."""
    poly, z = _transfer({ell: 1}, taylor_table(f, power, ell), 0), alpha.value
    target = complex(sum(c * z ** k for k, c in poly.items()))
    return abs(clark_measure(f, alpha, power).moment(ell) - target)


def check_first_moment(f: BlaschkeProduct, alpha: CirclePoint, power: int = 1) -> float:
    """Residual of int z d mu_alpha = conj(f'(0)) alpha for f^power."""
    return _moment_residual(f, alpha, power, 1)


def check_second_moment(f: BlaschkeProduct, alpha: CirclePoint, power: int = 1) -> float:
    """Residual of int z^2 d mu_alpha = conj(f''(0)/2) alpha + conj(f'(0))^2 alpha^2."""
    return _moment_residual(f, alpha, power, 2)


def desintegrate(f: BlaschkeProduct, observable, k_alpha: int = 512, power: int = 1):
    """Average the atomic Clark integrals of observable over alpha.

    Returns (double integral value, residual against int observable dm),
    realizing m = int mu_alpha dm(alpha).
    """
    if k_alpha < 64:
        raise ValueError("k_alpha must be >= 64")
    alphas = TWO_PI * np.arange(k_alpha) / k_alpha
    angles, weights = BoundaryAtomSolver(f, power)._pullback(alphas)
    values = np.asarray(observable(np.exp(1j * angles.ravel()))).reshape(angles.shape)
    inner = np.sum(weights * values, axis=1)
    double = complex(np.mean(inner))
    direct = integrate(observable, tol=1e-13).value
    return double, abs(double - direct)

