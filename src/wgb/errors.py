"""Exception types shared across the library."""


class DimensionError(ValueError):
    """Exponent vector / weight vector lengths do not match."""


class FieldMismatchError(ValueError):
    """Operands live over different prime fields, or a polynomial of a
    system lives in another ring than the system."""


class NotInImageError(ValueError):
    """A polynomial is not in the image of the weight substitution map."""


class NotWHomogeneousError(ValueError):
    """An operation required weighted homogeneous input."""


class InsufficientWindowError(ValueError):
    """A truncated series window was too short to decide the question."""


class PositiveDimensionError(ValueError):
    """A zero-dimensional ideal was required."""


class StaircaseTooLargeError(ValueError):
    """A staircase too large for the exact FGLM matrix-vector products."""


class ArityError(ValueError):
    """Wrong number of degrees/weights for the requested operation."""


class SystemFormatError(ValueError):
    """A system file or polynomial expression that breaks the file format."""


class EmptySupportError(ValueError):
    """No monomials exist at a requested weighted degree."""


class NonPositiveDegreeError(ValueError):
    """An input of declared weighted degree <= 0 where a structural verdict
    needs positive degrees: a factor 1 - T^0 = 0 makes the product form
    identically zero, which the unit ideal's zero quotient matches."""


class IncompleteBasisError(RuntimeError):
    """The matrix engine certified its basis before the census of the
    harvest met the expected Hilbert series.

    Carries `basis`, the reduced Groebner basis, which is complete, and
    first_divergence = (degree, got, expected): the first degree where the
    ideal's Hilbert function leaves the series, with both coefficients.
    """

    def __init__(self, message, basis=None, first_divergence=None):
        super().__init__(message)
        self.basis = basis
        self.first_divergence = first_divergence


class BudgetExceededError(RuntimeError):
    """A computation hit its wall-clock budget."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats
