"""Exception hierarchy shared by all haarlab modules."""


class HaarlabError(Exception):
    """Base class for all errors raised by this library."""


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


class NotContinuousMultiplication(HaarlabError):
    """Carries a witness (a, b, open_mask) where the product map fails."""


class MeasureSpaceMismatch(HaarlabError):
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
