"""Aleksandrov-Clark measures of finite Blaschke products.

For a finite Blaschke product f with f(0) = 0 and alpha on the circle, the
measure mu_alpha is purely atomic: its atoms are the deg(f) boundary
solutions of f(zeta) = alpha, each carrying weight 1 / |f'(zeta)|.  The
atoms of f^n are found by pulling alpha back n times through the d inverse
branches of f.  Each level solves f(zeta) = beta on the circle in closed form
(d-th roots for rot z^d, a half-angle form for degree 2) or, for any other
map, as eigenvalues of companion matrices, which Newton steps polish.
Since f(0) = 0 the moments are Taylor coefficients, int conj(zeta)^l d mu_alpha
= sum_j conj(alpha)^j [z^l] (f^n)^j, and the moment checks read their
coefficients straight from row l of `blaschke.taylor_table(f, n, l)`.

`clark_measure` keeps the last measure it solved in a one-slot memo, keyed
by the exact float bits of f's zeros and rotation and of alpha, and by the
power.  The moment checks take their measure from `clark_measure`, so a
measure followed by its first and second moments solves the atoms once.
The slot holds one triple only, so a different (f, alpha, power) always
solves afresh, and a failed solve leaves it as it was.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import TWO_PI, BlaschkeProduct, CirclePoint, taylor_table
from .errors import BudgetExceeded, RootBracketFailure
from .quadrature import integrate

ATOM_COUNT_CAP = 4096
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
        object.__setattr__(self, "atoms", atoms)

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


@dataclass(frozen=True)
class MomentBoundCheck:
    passed: bool
    max_coeff: float
    bound: float
    vacuous: bool


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
        # any d >= 2 passes the cap by power 13, so no huge d^power is formed
        if f.degree ** min(power, ATOM_COUNT_CAP.bit_length()) > ATOM_COUNT_CAP:
            raise BudgetExceeded(f"degree {f.degree}^{power} exceeds atom cap {ATOM_COUNT_CAP}")
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
        return theta % TWO_PI, weights

    def atom_angles(self, alpha_theta: float) -> np.ndarray:
        """All solutions theta of f^n(e^{i theta}) = e^{i alpha_theta}."""
        return self.atoms(alpha_theta)[0]

    def atoms(self, alpha_theta: float):
        """Atom angles in ascending order and their weights 1 / |(f^n)'|."""
        theta, weights = self._pullback([alpha_theta])
        order = np.argsort(theta[0])
        return theta[0, order], weights[0, order]


# (key, measure) of the last measure clark_measure solved.  One assignment
# replaces both, so a reader never pairs a key with another triple's measure;
# ClarkMeasure is frozen with read-only atoms, so callers share it.
_last_measure = None


def _measure_key(f: BlaschkeProduct, alpha: CirclePoint, power) -> tuple:
    """The exact float bits of f and alpha, and power: equal keys solve alike.

    BlaschkeProduct equality is not enough, since it takes 0.5+0j and 0.5-0j
    for the same zero.
    """
    bits = np.array(f.zeros + (f.rotation, alpha.theta), dtype=complex).tobytes()
    return bits, power


def clark_measure(f: BlaschkeProduct, alpha: CirclePoint, power: int = 1) -> ClarkMeasure:
    """The Clark measure of f^power at spectral parameter alpha.

    The same (f, alpha, power) twice in a row returns the same object, solved once.
    """
    global _last_measure
    key = _measure_key(f, alpha, power)
    last = _last_measure
    if last is not None and last[0] == key:
        return last[1]
    solver = BoundaryAtomSolver(f, power)
    angles, weights = solver.atoms(alpha.theta)
    total = float(np.sum(weights))
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise RootBracketFailure(
            f"clark weights sum to {total}, not 1; atom solve is suspect")
    mu = ClarkMeasure(alpha=alpha, atoms=np.column_stack((angles, weights)))
    _last_measure = (key, mu)
    return mu


def _moment_residual(f: BlaschkeProduct, alpha: CirclePoint, power: int, ell: int) -> float:
    """|int z^ell d mu_alpha - its Taylor-table value| for the measures of f^power.

    int z^ell d mu_alpha = sum_k alpha^k conj(c_k), c_k = [z^ell] (f^power)^k.
    """
    row = taylor_table(f, power, ell)[ell, 1:].conj().tolist()
    target = complex(sum(c * alpha.value ** k for k, c in enumerate(row, 1)))
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


def check_moment_bound(f: BlaschkeProduct, power: int, order: int) -> MomentBoundCheck:
    """Check max_k |c_k| <= |f'(0)|^{power/2}, c_k = [z^order] (f^power)^k."""
    if not 1 <= order <= power:
        raise ValueError("need 1 <= order <= power")
    a = abs(f.taylor_at_zero().c1)
    max_coeff = max(abs(c) for c in taylor_table(f, power, order)[order, 1:].tolist())
    if a == 0.0:
        return MomentBoundCheck(max_coeff <= 1e-12, max_coeff, 0.0, True)
    bound = a ** (power / 2.0)
    return MomentBoundCheck(max_coeff <= bound + 1e-12, max_coeff, bound, False)


def moment_bound_onset(f: BlaschkeProduct, power_values, order_cap: int = 3):
    """Smallest power from which the moment bound holds for all tested orders.

    Returns None if no tested power starts an all-pass suffix.  Only that
    suffix counts, so the powers are checked from the top down until the
    first failure.
    """
    onset = None
    for n in sorted(power_values, reverse=True):
        if not all(check_moment_bound(f, n, ell).passed
                   for ell in range(1, min(n, order_cap) + 1)):
            break
        onset = n
    return onset
