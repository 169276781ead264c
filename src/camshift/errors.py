"""Exception taxonomy shared by all camshift modules."""


class CamshiftError(Exception):
    """Base class for all camshift errors."""


class IndexOutOfRange(CamshiftError):
    pass


class BudgetExceeded(CamshiftError):
    pass


class PatternTooLong(CamshiftError):
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


class EnumerationTooLarge(CamshiftError):
    pass


class ReducibleMatrix(CamshiftError):
    pass


class MalformedFamily(CamshiftError):
    pass
