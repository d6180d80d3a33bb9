"""Shared exception types, and the rank of NaN among residuals."""


def nan_worst(x):
    """Key ranking NaN above every number: max(..., key=nan_worst) keeps a NaN residual."""
    return (x != x, x)


class ValidationError(ValueError):
    """Structurally invalid input (bad arity, non-bijective permutation, ...)."""


class DomainError(ValueError):
    """Input is well-formed but outside the operation's domain."""


class SingularJacobianError(DomainError):
    """Jacobian not invertible at a queried point."""

    def __init__(self, point, detail=""):
        self.point = tuple(point)
        msg = "singular Jacobian at point %s" % (self.point,)
        if detail:
            msg += " (%s)" % detail
        super().__init__(msg)


class DslSyntaxError(ValueError):
    """Parse failure, carrying the byte offset of the offending token."""

    def __init__(self, message, offset):
        self.offset = offset
        self.message = message
        super().__init__("%s (at offset %d)" % (message, offset))


class ScenarioError(ValueError):
    """Scenario file failed validation; `location` names the offending entry."""

    def __init__(self, message, location=None):
        self.location = location
        if location:
            message = "%s: %s" % (location, message)
        super().__init__(message)
