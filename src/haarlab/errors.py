"""The four exception classes shared by all haarlab modules.

A caller's argument that breaks a precondition raises InputError, also a
ValueError, with a message that says on its own what is wrong: a set that
is not closed, open or a union of atoms, an empty interior, a negative
mass, a measure on another group.  An input, or a number of its report,
past a fixed size cap raises TooLarge.  The CLI reports an InputError by
its message and a TooLarge as `TooLarge: message`, both with exit 2.
InternalInconsistency is a broken invariant of the library, a bug: it
reaches the caller as a traceback, exit 1, like any other exception.
"""


class HaarlabError(Exception):
    """Base class for all errors raised by this library."""


class InputError(HaarlabError, ValueError):
    """A caller's argument breaks a precondition: malformed input."""


class TooLarge(HaarlabError):
    """Input, or a number of its report, exceeds a fixed size cap."""


class InternalInconsistency(HaarlabError):
    """A structural invariant the library guarantees was violated; a bug."""
