"""Exception hierarchy shared by all haarlab modules.

A caller's argument that breaks a precondition raises InputError, which is
also a ValueError, with a message that says on its own what is wrong.  The
other named errors name what failed by their class.  So the CLI reports an
InputError's message as is and every other HaarlabError as `Name: message`,
both with exit 2; any other exception is a bug, a traceback with exit 1.
"""


class HaarlabError(Exception):
    """Base class for all errors raised by this library."""


class InputError(HaarlabError, ValueError):
    """A caller's argument breaks a precondition: malformed input."""


class TooLarge(HaarlabError):
    """Input exceeds the configured size cap."""


class NotDisjoint(HaarlabError):
    pass


class NotClosed(HaarlabError):
    pass


class NotOpen(HaarlabError):
    pass


class NotRegular(HaarlabError):
    pass


class NotCovered(HaarlabError):
    pass


class NotNested(HaarlabError):
    pass


class NotContinuousMultiplication(InputError):
    """Carries a witness (a, b, open_mask) where the product map fails."""


class MeasureSpaceMismatch(InputError):
    pass


class NotMeasurable(HaarlabError):
    """A set that is not a union of atoms, or a function that is not
    constant on some atom; the message names the witness atom or set."""


class EmptyInterior(HaarlabError):
    pass


class NegativeMass(HaarlabError):
    pass


class InternalInconsistency(HaarlabError):
    """A structural invariant the library guarantees was violated; a bug."""
