"""Shared exception types."""


class NonConvergence(RuntimeError):
    """Quadrature failed to meet the requested tolerance at the grid cap, or
    met a non-finite integrand value, which no finer grid can wash out.

    Carries the last computed value, the last refinement delta and the grid
    size, so a caller can report how far the integral got.
    """

    def __init__(self, message, value=None, est_error=None, grid_size=None):
        super().__init__(message)
        self.value = value
        self.est_error = est_error
        self.grid_size = grid_size


class BudgetExceeded(ValueError):
    """Requested computation would push the quadrature grid past its cap."""


class RootBracketFailure(RuntimeError):
    """Clark atom weights failed to sum to 1, so the atom solve is suspect."""


class SeparationViolation(ValueError):
    """Block families must be strictly ordered: max(A_k) < min(A_{k+1})."""


class ShapeMismatch(ValueError):
    """Sign/index pattern does not match any of the four-factor shapes."""


class SandwichViolation(RuntimeError):
    """Variance left the Toeplitz sandwich; indicates an implementation bug."""


class RegimeTooSmall(ValueError):
    """N too small for the block-splitting construction to place one block."""


class InsufficientSamples(ValueError):
    """Not enough samples for the requested distributional statistic."""


class HeavyTruncation(ValueError):
    """Stored coefficient tail truncates too much mass for a tail run."""
