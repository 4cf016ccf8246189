"""Exception hierarchy shared by all mqf modules."""

from __future__ import annotations


class MqfError(Exception):
    """Base class for all library errors."""


class EmptyPrimeListError(MqfError):
    """Field constructor was given no generators."""


class NotSquarefreeError(MqfError):
    """An integer that must be squarefree (and >= 2) is not."""

    def __init__(self, value: int, context: str = "generator"):
        self.value = value
        super().__init__(f"{context} {value} is not a squarefree integer >= 2")


class DegenerateFieldError(MqfError):
    """The generators do not span a field of degree 2^k.

    Raised when some product of generators has a square rational part,
    which makes two subset radicands collide.
    """


class PairwiseCoprimeError(MqfError):
    """k >= 3 towers require pairwise coprime generators."""


class FieldTooLargeError(MqfError):
    """More generators than ``fields.MAX_K`` allows."""


class FieldMismatchError(MqfError):
    """Operands belong to different fields."""


class NonRationalNormError(MqfError):
    """Internal bug: the conjugate product of an element is not rational."""


class NonRationalCoefficientError(MqfError):
    """Internal bug: a characteristic-polynomial coefficient is not rational."""


class NotTotallyPositiveError(MqfError):
    """An operation requires a totally positive element."""


class NotIntegralError(MqfError):
    """An operation requires an algebraic integer."""


class ScreenMismatchError(MqfError):
    """Internal bug: the witness search's pair screen accepted a pair that
    enumeration rejects."""


class WrongDegreeError(MqfError):
    """An operation is only defined for a specific tower height k."""


class PerfectSquareError(MqfError):
    """sqrt(D) has no continued-fraction expansion because D is square."""


class ScanOverflowError(MqfError, OverflowError):
    """A scan's coordinates are too large for the kernel's int64 arithmetic."""


class BudgetExceededError(MqfError):
    """A lattice enumeration ran out of its point budget; verdict withheld."""

    def __init__(self, points_scanned: int, points_required: int, what: str = "enumeration"):
        self.points_scanned = points_scanned
        self.points_required = points_required
        self.what = what
        super().__init__(
            f"{what} budget exhausted: scanned {points_scanned}, "
            f"region has {points_required} lattice points"
        )

    def __reduce__(self):
        # crosses a process pool as itself, not as a one-argument rebuild
        return type(self), (self.points_scanned, self.points_required, self.what)


class WitnessNotFoundError(MqfError):
    """No witness set of the requested size was found in the candidate pool.

    Not a refutation: the pool, trace bound or scan range may simply be
    too small.  ``budget_limited`` records whether any pair certification
    was cut short by the point budget rather than exhausted.
    """

    def __init__(self, message: str, budget_limited: bool = False):
        self.budget_limited = budget_limited
        super().__init__(message)


class BaseWitnessNotFoundError(WitnessNotFoundError):
    """Tower construction failed at the quadratic base case."""


class MalformedPayloadError(MqfError):
    """A JSON artifact does not have the shape or the types that mqf writes."""


class ExprError(MqfError):
    """Element-expression parse error; carries the offending token span."""

    def __init__(self, message: str, start: int, end: int):
        self.start = start
        self.end = end
        super().__init__(f"{message} (at characters {start}..{end})")
