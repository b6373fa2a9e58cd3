"""Exception types shared across the package."""


class InstanceFormatError(ValueError):
    """Raised when an instance file cannot be parsed."""


class DigraphFormatError(ValueError):
    """Raised when a digraph file cannot be parsed."""


class BudgetError(RuntimeError):
    """Raised when a solver would exceed its configured resource budget."""


class TransformStuckError(RuntimeError):
    """Raised when a pallet order cannot drive a processing to completion."""


class InadmissibleDigraphError(ValueError):
    """Raised when a digraph violates the degree requirements of the queue reduction."""


class InternalError(AssertionError):
    """Raised when a solver's own witness fails its replay or certification."""
