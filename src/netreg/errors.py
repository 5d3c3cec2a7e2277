"""Exception taxonomy for netreg.

Two families: validation errors (malformed inputs or violated model
assumptions) and numerical errors (a solver failed on otherwise valid
inputs).  The CLI maps them to exit codes 1 and 2 respectively.
"""


class NetregError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(NetregError):
    """An input violates a documented invariant; the message names it."""


class NumericalError(NetregError):
    """A numerical routine failed (no convergence, singular system, ...)."""


# network construction

class NotSymmetricError(ValidationError):
    pass


class NegativeWeightError(ValidationError):
    pass


class NonzeroDiagonalError(ValidationError):
    pass


class DisconnectedError(ValidationError):
    pass


class InvalidSizeError(ValidationError):
    pass


# model-domain checks

class SpectralBoundError(ValidationError):
    """delta * lambda_1 >= 1: the consumption equilibrium does not exist."""


class DimensionMismatchError(ValidationError):
    pass


class ZeroVectorError(ValidationError):
    pass


class OutOfRangeError(ValidationError):
    """Scalar argument outside its admissible interval."""


class EtaOutOfRangeError(OutOfRangeError):
    pass


class AssumptionViolatedError(ValidationError):
    """Zero-cost / non-uniform-value / non-regular-graph assumption broken."""


class NotRegularError(ValidationError):
    pass


class BadPartitionError(ValidationError):
    pass


class UnverifiedPartitionError(ValidationError):
    pass


class UnsupportedRegulationError(ValidationError):
    pass


class ScenarioParseError(ValidationError):
    """Scenario text is ungrammatical; carries the offending line number."""

    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnknownExperimentError(ValidationError):
    pass


# numerical failures

class NoConvergenceError(NumericalError):
    pass


class SingularSystemError(NumericalError):
    pass


class InfeasibleError(NumericalError):
    """The feasible price set is empty."""


class InvariantError(NumericalError):
    """A computed quantity broke a property the model guarantees for valid
    inputs, such as a positive Perron vector; the result is not trusted."""


class SweepError(NumericalError):
    """A sweep aborted; carries the spillover value that failed and the
    kind of the regulation being swept."""

    def __init__(self, delta, cause, kind):
        super().__init__(f"sweep failed at delta={delta!r} ({kind}): {cause}")
        self.delta = delta
        self.kind = kind
