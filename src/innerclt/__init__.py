"""Boundary dynamics of finite Blaschke products fixing the origin.

Correlation identities of iterates, Aleksandrov-Clark measures, variance
formulas for coefficient sequences, and Monte Carlo verification of the
Gaussian limit of normalized iterate sums.
"""

from .blaschke import (BlaschkeProduct, CirclePoint, TaylorJet,
                       iterate_derivative_on_circle, monomial, taylor_table)
from .clark import (ClarkMeasure, clark_measure, check_first_moment,
                    check_second_moment, desintegrate)
from .clt import GaussFitReport, Tolerances, gauss_report, sample_T, simulate
from .correlations import (BlockSum, CorrelationSpec, PhiReport,
                           block_product_factorization, decay_check,
                           four_factor, higher_correlation, pair_correlation,
                           phi_exponent)
from .quadrature import check_invariance, counter_uniform, integrate, uniform_angles
from .variance import (CoefficientSequence, SplitPlan, VarianceReport,
                       asymptotic_sigma_squared, growth_condition,
                       l2_identity_check, quasiorthogonality,
                       sigma_N_squared, split_plan, tail_sigma_squared,
                       toeplitz_sandwich)

__version__ = "0.1.0"
