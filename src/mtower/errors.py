"""Exception hierarchy. Families map to CLI exit codes (see cli.py)."""


class MTError(Exception):
    """Base for all library errors."""


class BudgetError(MTError):
    """A configured resource bound was hit before the computation closed."""


class OrderExceeded(BudgetError):
    pass


class Overflow(BudgetError):
    """Coset enumeration passed max_cosets before closing."""


class Budget(BudgetError):
    pass


class TooLarge(BudgetError):
    pass


class InvariantViolation(MTError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class NonIntegralGenus(InvariantViolation):
    pass


class InputError(MTError):
    """Caller handed data violating a precondition."""


class DimensionMismatch(InputError):
    pass


class NotASubgroup(InputError):
    pass


class NotInvolution(InputError):
    pass


class NotPPrime(InputError):
    pass


class NotPPerfect(InputError):
    pass


class NoInversePairs(InputError):
    pass


class MismatchedLevels(InputError):
    pass


class IncompatibleLevels(InputError):
    pass


class RankDeficient(InputError):
    pass


class Collapse(MTError):
    """A product closed below its expected order, or tails no extension has."""


class NoAlpha(MTError):
    """No element of the kernel module lifts to order p^2; not a Frattini slice."""


class EmptyNielsenClass(MTError):
    """The requested Nielsen class has no elements."""


class CorruptCache(MTError):
    pass
