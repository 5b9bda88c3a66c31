"""Exception types shared across the package."""


class UndefinedOperation(Exception):
    """A partial operation was applied outside its domain of definition."""


class GroupoidIncompatibility(UndefinedOperation):
    """Composition attempted with mismatched target and source points."""


class InsufficientOrder(ValueError):
    """An input series is truncated below the requested output order."""


class RadiusViolation(UndefinedOperation):
    """Constant term of the inner series lies outside the outer disk of convergence."""


class DivergenceDetected(Exception):
    """Divergence was detected where convergence was required."""


class ConvergenceBudgetExceeded(UndefinedOperation):
    """The analytic tail bound could not be met within the term budget."""


class SingularTruncation(ValueError):
    """Elimination exhausted its rows before completing the factorization."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"no nonzero pivot available for column {column}")


class WitnessNotFound(UndefinedOperation):
    """Pivot-row search exhausted its row budget."""

    def __init__(self, column: int, row_budget: int):
        self.column = column
        self.row_budget = row_budget
        super().__init__(
            f"no usable pivot row for column {column} within budget {row_budget}"
        )


class ZeroDiagonalError(ValueError):
    """Triangular inversion requires every diagonal entry to be nonzero."""


class DomainMismatch(TypeError):
    """Operands live in incompatible scalar domains."""


class SingularPath(UndefinedOperation):
    """A lifted segment passes through the puncture."""


class UndefinedProduct(UndefinedOperation):
    """The partial product is not defined on these arguments."""


class UndefinedInverse(UndefinedOperation):
    """The partial inverse is not defined on this argument."""


class ReferencePathError(UndefinedOperation):
    """The straight reference path from the identity hits the puncture."""


class CertifiedArcError(UndefinedOperation):
    """Angle parameter lies outside the certified convergence arc."""
