"""Exception types shared across the package."""


class InfopayError(Exception):
    """Base class for all package errors."""


class InputError(InfopayError):
    """Invalid argument or violated construction invariant.

    The message names the invariant that failed and, where helpful, the
    offending component (distribution name, type row, signal label).
    """


class OrderingError(InfopayError):
    """Raised when an operation requires two signal structures to be
    informativeness-ordered and no garbling kernel exists."""


class ParseError(InputError):
    """Instance-file syntax or reference error, with line diagnostics.

    A kind of invalid input: every malformed instance text raises
    ``InputError``, this subclass when the fault is in the text itself.
    """
