"""Aleksandrov-Clark measures of finite Blaschke products.

For a finite Blaschke product f with f(0) = 0 and alpha on the circle, the
measure mu_alpha is purely atomic: its atoms are the deg(f) boundary
solutions of f(zeta) = alpha, each carrying weight 1 / |f'(zeta)|.  The
atoms of f^n are found by pulling alpha back n times through the d inverse
branches of f, each level an algebraic root solve on the circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import TWO_PI, BlaschkeProduct, CirclePoint, jet_of_iterate
from .errors import BudgetExceeded, NonConvergence, RootBracketFailure
from .quadrature import _budgeted_integral, integrate

ATOM_COUNT_CAP = 4096
NEWTON_STEPS = 3
WEIGHT_SUM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ClarkMeasure:
    """Atoms as a read-only (n, 2) array of (angle, weight), angles in [0, 2 pi)."""

    alpha: CirclePoint
    atoms: np.ndarray
    source_degree: int

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
class MomentPolynomial:
    """Coefficients of the trigonometric polynomial alpha -> int conj(z)^l d mu_alpha.

    For l > 0 the polynomial is sum_k coeffs[k-1] * conj(alpha)^k; for l < 0
    it is the conjugate expansion in powers of alpha.
    """

    order: int
    coeffs: tuple

    def eval_at(self, alpha: complex) -> complex:
        base = np.conj(alpha) if self.order > 0 else alpha
        return complex(sum(c * base ** (k + 1) for k, c in enumerate(self.coeffs)))


@dataclass(frozen=True)
class MomentBoundCheck:
    passed: bool
    max_coeff: float
    bound: float
    vacuous: bool


class BoundaryAtomSolver:
    """Solves f^n(zeta) = alpha by pulling alpha back through the inverse branches of f.

    For |beta| = 1 the d solutions of f(zeta) = beta are the roots of the
    degree-d polynomial rot z^m prod (a_i - z) - beta prod (1 - conj(a_i) z),
    and all of them lie on the circle.  Each of the n levels finds the roots
    for every point of the previous level at once, as eigenvalues of a stack
    of companion matrices, and polishes their angles by Newton steps.  The
    weight 1 / |(f^n)'| is the product of 1 / |f'| along each branch.
    """

    def __init__(self, f: BlaschkeProduct, power: int = 1):
        if power < 1:
            raise ValueError("power must be >= 1")
        self.f = f
        self.power = power
        self.total_degree = f.degree ** power
        if self.total_degree > ATOM_COUNT_CAP:
            raise BudgetExceeded(
                f"degree {f.degree}^{power} = {self.total_degree} exceeds atom cap {ATOM_COUNT_CAP}")
        num, den = np.ones(1, dtype=complex), np.ones(1, dtype=complex)
        for a in f.nonzero_zeros:
            num = np.convolve(num, [1.0, -a])
            den = np.convolve(den, [-np.conj(a), 1.0])
        # divided by its leading coefficient rot (-1)^k, the polynomial is
        # z^d + sum_j (num_j - beta den_j) z^j, coefficients highest first
        lead = f.rotation * (-1) ** len(f.nonzero_zeros)
        self._num = np.append(num, np.zeros(f.origin_multiplicity))[1:]
        self._den = np.append(np.zeros(f.degree - den.size), den) / lead

    def _pullback(self, alpha_thetas) -> tuple:
        """Angles in [0, 2 pi) and weights of the atoms, one row per alpha."""
        f, d = self.f, self.f.degree
        theta = np.asarray(alpha_thetas, dtype=float).reshape(-1, 1)
        weights = np.ones_like(theta)
        for _ in range(self.power):
            beta = np.exp(1j * theta)[..., None]
            companion = np.zeros(beta.shape[:-1] + (d, d), dtype=complex)
            companion[..., 0, :] = beta * self._den - self._num
            companion[..., 1:, :-1] = np.eye(d - 1)
            child = np.angle(np.linalg.eigvals(companion))
            # d/dtheta arg f(e^{i theta}) = |f'(e^{i theta})| on the circle
            for _ in range(NEWTON_STEPS):
                z = np.exp(1j * child)
                child = child - np.angle(f._eval(z) * np.conj(beta)) / f._circle_speed(z)
            theta = child.reshape(len(theta), -1)
            weights = (weights[..., None] / f._circle_speed(np.exp(1j * child))).reshape(theta.shape)
        return theta % TWO_PI, weights

    def atom_angles(self, alpha_theta: float) -> np.ndarray:
        """All solutions theta of f^n(e^{i theta}) = e^{i alpha_theta}."""
        return self.atoms(alpha_theta)[0]

    def atoms(self, alpha_theta: float):
        """Atom angles in ascending order and their weights 1 / |(f^n)'|."""
        theta, weights = self._pullback([alpha_theta])
        order = np.argsort(theta[0])
        return theta[0, order], weights[0, order]


def clark_measure(f: BlaschkeProduct, alpha: CirclePoint, power: int = 1) -> ClarkMeasure:
    """The Clark measure of f^power at spectral parameter alpha."""
    solver = BoundaryAtomSolver(f, power)
    angles, weights = solver.atoms(alpha.theta)
    total = float(np.sum(weights))
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise RootBracketFailure(
            f"clark weights sum to {total}, not 1; atom solve is suspect")
    return ClarkMeasure(alpha=alpha, atoms=np.column_stack((angles, weights)),
                        source_degree=solver.total_degree)


def check_first_moment(f: BlaschkeProduct, alpha: CirclePoint, power: int = 1) -> float:
    """Residual of int z d mu_alpha = conj(f'(0)) alpha for f^power."""
    mu = clark_measure(f, alpha, power)
    jet = jet_of_iterate(f, power)
    target = np.conj(jet.c1) * alpha.value
    return abs(mu.moment(1) - target)


def check_second_moment(f: BlaschkeProduct, alpha: CirclePoint, power: int = 1) -> float:
    """Residual of int z^2 d mu_alpha = conj(f''(0)/2) alpha + conj(f'(0))^2 alpha^2."""
    mu = clark_measure(f, alpha, power)
    jet = jet_of_iterate(f, power)
    a = alpha.value
    target = np.conj(jet.c2) * a + np.conj(jet.c1) ** 2 * a ** 2
    return abs(mu.moment(2) - target)


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


def moment_polynomial(f: BlaschkeProduct, power: int, order: int,
                      tol: float = 1e-12) -> MomentPolynomial:
    """Coefficients c_k = k-th alpha-coefficient of int conj(z)^order d mu_alpha.

    The measures are those of f^power; c_k is the Taylor coefficient of
    z^|order| in (f^power)^k, extracted by circle quadrature.
    """
    if order == 0:
        raise ValueError("order must be nonzero")
    ell = abs(order)
    coeffs = []
    for k in range(1, ell + 1):
        def g(z, k=k):
            fn = f.boundary_orbit(z, power)
            return fn ** k * np.conj(z) ** ell
        c = _budgeted_integral(g, ell * (f.degree ** power) + ell, tol)
        coeffs.append(c if order > 0 else np.conj(c))
    return MomentPolynomial(order=order, coeffs=tuple(coeffs))


def check_moment_bound(f: BlaschkeProduct, power: int, order: int) -> MomentBoundCheck:
    """Check max_k |c_k| <= |f'(0)|^{power/2} for the moments of f^power."""
    if not 1 <= abs(order) <= power:
        raise ValueError("need 1 <= |order| <= power")
    a = abs(f.taylor_at_zero().c1)
    poly = moment_polynomial(f, power, order)
    max_coeff = max(abs(c) for c in poly.coeffs)
    if a == 0.0:
        return MomentBoundCheck(max_coeff <= 1e-12, max_coeff, 0.0, True)
    bound = a ** (power / 2.0)
    return MomentBoundCheck(max_coeff <= bound + 1e-12, max_coeff, bound, False)


def moment_bound_onset(f: BlaschkeProduct, power_values, order_cap: int = 3):
    """Smallest power from which the moment bound holds for all tested orders.

    A power past the quadrature budget or convergence fails.  Returns None
    if no tested power starts an all-pass suffix.
    """
    powers = sorted(power_values)
    passes = {}
    for n in powers:
        ok = True
        for ell in range(1, min(n, order_cap) + 1):
            try:
                if not check_moment_bound(f, n, ell).passed:
                    ok = False
                    break
            except (BudgetExceeded, NonConvergence):
                ok = False
                break
        passes[n] = ok
    onset = None
    for n in reversed(powers):
        if passes[n]:
            onset = n
        else:
            break
    return onset
