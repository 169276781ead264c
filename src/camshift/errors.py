"""The exit-code table: one exception class per error exit code of the CLI.

    CamshiftError     exit 2   a violated property or a usage error
    BudgetExceeded    exit 3   a budget exhausted before a result is decided
    MalformedFamily   exit 4   a family file that cannot be read or rebuilt

Every other condition raises ``CamshiftError`` with a message naming it.  A
family file whose parameters the builder refuses is malformed:
``cam1d.load_family`` turns any ``CamshiftError`` met while rebuilding a
file into ``MalformedFamily``.
"""


class CamshiftError(Exception):
    pass


class BudgetExceeded(CamshiftError):
    pass


class MalformedFamily(CamshiftError):
    pass
