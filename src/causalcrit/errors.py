"""Exception and warning types shared across the package."""


class CausalCritError(Exception):
    """Base class for all domain errors raised by this package."""


# -- graph construction and queries -----------------------------------------

class DuplicateNode(CausalCritError):
    pass


class UnknownNode(CausalCritError):
    pass


class UnknownEndpoint(CausalCritError):
    pass


class SelfLoop(CausalCritError):
    pass


class CycleDetected(CausalCritError):
    """Raised when the directed part of a structure contains a cycle.

    The message names one offending cycle.
    """


class OverlappingSets(CausalCritError):
    pass


class InvalidQuery(CausalCritError):
    """A query precondition was violated (e.g. latent query node, x == y)."""


# -- discrete models ---------------------------------------------------------

class InsufficientInstantiation(CausalCritError):
    pass


class ParentsNotInstantiated(CausalCritError):
    pass


class UnknownCategory(CausalCritError):
    pass


class ZeroProbabilityCondition(CausalCritError):
    pass


class StateSpaceExceeded(CausalCritError):
    """An exact query's output or largest intermediate factor would exceed the
    state-space limit; the limit applies to that query's own computation, not
    to the size of the model's full joint."""


class EmptyDataset(CausalCritError):
    pass


# -- interventions and indicators --------------------------------------------

class NotMarkovian(CausalCritError):
    pass


class NotAdmissible(CausalCritError):
    pass


class NotIdentifiable(CausalCritError):
    pass


class DivisionByZeroEffect(CausalCritError):
    pass


class ZeroMeanCriticality(CausalCritError):
    pass


class InfiniteDivergence(CausalCritError):
    pass


# -- criticality metrics ------------------------------------------------------

class DegenerateTrajectory(CausalCritError):
    pass


class FieldCoverageGap(CausalCritError):
    pass


class ZeroAvailableAcceleration(CausalCritError):
    pass


class NonMonotoneEdges(CausalCritError):
    pass


# -- io ------------------------------------------------------------------------

class ParseError(CausalCritError):
    pass


class ValidationError(CausalCritError):
    pass


class UnknownLabel(CausalCritError):
    def __init__(self, row: int, column: str, label: str):
        super().__init__(f"row {row}, column {column!r}: unknown label {label!r}")
        self.row = row
        self.column = column
        self.label = label


class RaggedRow(CausalCritError):
    pass


# -- warnings --------------------------------------------------------------------

class UnseenParentConfigurationWarning(UserWarning):
    """A CPD row had zero observations and smoothing was disabled."""
