"""Exception hierarchy shared by all haarlab modules.

A caller's argument that breaks a precondition raises InputError, which is
also a ValueError, with a message that says on its own what is wrong; the
separation, splitting and Urysohn lemmas of `topology` do so too.  The
other named errors name what failed by their class: a size cap, a set that
is not closed or not open where a construction needs one, a set or function
that is not measurable, an empty interior, a negative mass.  So the CLI
reports an InputError's message as is and every other HaarlabError as
`Name: message`, both with exit 2; any other exception is a bug, a
traceback with exit 1.
"""


class HaarlabError(Exception):
    """Base class for all errors raised by this library."""


class InputError(HaarlabError, ValueError):
    """A caller's argument breaks a precondition: malformed input."""


class TooLarge(HaarlabError):
    """Input, or a number of its report, exceeds a fixed size cap."""


class NotClosed(HaarlabError):
    pass


class NotOpen(HaarlabError):
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
