"""Exception types shared across the toolkit.

Resource guards (SearchBudgetExceeded, TypeSpaceTooLarge, TooLarge) are
distinct from "no" answers: they mean the computation was refused or aborted,
not that the instance is infeasible.
"""


class CgeError(Exception):
    """Base class for all toolkit errors."""


class EmptyGraph(CgeError):
    pass


class SelfLoop(CgeError):
    pass


class NotConnected(CgeError):
    pass


class NotACover(CgeError):
    pass


class NotEulerian(CgeError):
    pass


class StartNotInGraph(CgeError):
    pass


class TreeNotSpanning(CgeError):
    pass


class OddDegree(CgeError):
    pass


class PreconditionViolated(CgeError):
    pass


class TypeSpaceTooLarge(CgeError):
    """Raised when a construction would exceed the desk-scale guards."""


class SearchBudgetExceeded(CgeError):
    """Search aborted by a resource limit; the answer is unknown, not "no"."""


class DomainMismatch(CgeError):
    pass


class InfeasibleAllocation(CgeError):
    """Reconstruction refused an assignment that fails the equation check."""


class NotExact(CgeError):
    pass


class ImmediateNo(CgeError):
    """The input is trivially a no-instance; carries the reason."""


class TooLarge(CgeError):
    pass


class ParseError(CgeError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message
