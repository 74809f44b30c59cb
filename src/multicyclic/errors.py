"""Exception hierarchy shared by all modules."""


class MulticyclicError(Exception):
    """Base class for all library errors."""


class NotPrime(MulticyclicError):
    pass


class DegreeTooLarge(MulticyclicError):
    pass


class ReducibleModulus(MulticyclicError):
    pass


class DivisionByZero(MulticyclicError, ZeroDivisionError):
    pass


class OrderNotDividing(MulticyclicError):
    """n does not divide q-1: no primitive n-th root of unity exists."""


class RingTooLarge(MulticyclicError):
    """Over MAX_N coefficients, or a table over TABLE_LIMIT elements."""


class CtxMismatch(MulticyclicError):
    pass


class ArityMismatch(MulticyclicError):
    pass


class AxisOutOfRange(MulticyclicError):
    pass


class IndexOutOfRange(MulticyclicError):
    pass


class NotIdempotent(MulticyclicError):
    """Spectrum contains a value outside {0, 1}."""


class NotOrbitConstant(MulticyclicError):
    """Spectrum is not constant on a Frobenius orbit."""


class ZeroIdempotent(MulticyclicError):
    pass


class RankDeficient(MulticyclicError):
    """Internal consistency failure: basis does not reach full rank."""


class BoundViolated(MulticyclicError):
    """Internal consistency failure: a computed distance breaks a bound
    that holds for every code."""


class BudgetExceeded(MulticyclicError):
    """Exact minimum-distance enumeration would exceed the codeword budget."""


class Infeasible(MulticyclicError):
    """No union of orbits reaches the requested dimension."""
