"""Exception hierarchy shared by all xlat modules.

Exit-code mapping used by the CLI: InputError -> 1, GaloisFail -> 2,
ModuleCheckInconclusive / PrecisionExhausted -> 3, and 4 for InternalError
and every other XlatError that is not an InputError (CatalogCorrupt,
WitnessInvalid, ...): a valid input met a fault in xlat or its data.
"""


class XlatError(Exception):
    """Base class for all library errors."""


class InputError(XlatError):
    """Invalid input to a top-level driver (reducible polynomial, zero constant term, ...)."""


class InternalError(XlatError):
    """A soundness check inside xlat failed: a bug or corrupt data, not bad input."""


# polycore
class ZeroConstantTerm(InputError):
    pass


class BadPrime(XlatError):
    pass


class ParseError(InputError):
    pass


# numtests
class NotIrreducible(InputError):
    pass


class NotSquarefree(InputError):
    pass


# lattice
class DimensionMismatch(XlatError):
    pass


class ZeroEntry(XlatError):
    pass


class WitnessInvalid(XlatError):
    pass


# permgroup
class DegreeTooSmall(XlatError):
    pass


class NotTransitive(XlatError):
    pass


class GroupTooLarge(XlatError):
    pass


# galois
class GaloisFail(XlatError):
    """Galois group identification remained ambiguous after all certificates."""


class DegreeOutOfRange(InputError):
    pass


class CatalogCorrupt(XlatError):
    pass


# drivers
class ModuleCheckInconclusive(XlatError):
    """The rational-irreducibility decision returned Undecided."""


# galoislike
class PrecisionExhausted(XlatError):
    pass


class DegreeTooLarge(InputError):
    pass
