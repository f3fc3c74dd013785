"""Exception types shared across the package.

The CLI maps the three top-level families to distinct exit codes
(validation=2, dependency=3, numeric=4); everything else is a contract
violation and surfaces as a normal traceback.
"""


class FinegrainError(Exception):
    pass


class ValidationError(FinegrainError):
    """A config or argument is malformed or violates an invariant."""


class DependencyError(FinegrainError):
    """A required artifact is missing or belongs to a different config."""


class NumericError(FinegrainError):
    """Non-finite values where finiteness is guaranteed."""


class ShapeError(ValueError):
    """Tensor operands with incompatible shapes."""


class DegenerateMaskError(ValueError):
    """An attention mask leaves some query row with no visible key."""


class VocabError(ValueError):
    """A token is not present in the vocabulary."""


class SequenceLengthError(ValidationError):
    """A token sequence exceeds the model's maximum length (a config too small for its data)."""


class FoilCapabilityError(ValueError):
    """The scene cannot support the requested foil subtask."""


class EmptyInputError(ValueError):
    """A metric was asked to aggregate zero items."""


class UndefinedCorrelationError(ValueError):
    """Correlation requested on a zero-variance series."""
