"""Exception taxonomy shared by all camshift modules."""


class CamshiftError(Exception):
    """Base class for all camshift errors."""


class IndexOutOfRange(CamshiftError):
    pass


class BudgetExceeded(CamshiftError):
    pass


class EmptyPattern(CamshiftError):
    pass


class InvalidParameter(CamshiftError):
    pass


class OutOfBuiltRange(CamshiftError):
    pass


class MisalignedWindow(CamshiftError):
    pass


class ShapeMismatch(CamshiftError):
    pass


class StampCountTooLarge(CamshiftError):
    pass


class ReducibleMatrix(CamshiftError):
    pass


class MalformedFamily(CamshiftError):
    pass


class NonPolynomialRow(CamshiftError):
    """A certificate row whose counts or sizes leave the polynomial the
    parameter solver fitted them to."""
