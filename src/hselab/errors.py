"""Exception hierarchy shared by all hselab modules."""


class HselabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(HselabError):
    """Operands live in spaces of different dimension."""


class NumericalError(HselabError):
    """A numeric invariant was violated beyond rounding tolerance."""


class InvalidParameter(HselabError):
    """An argument is outside its documented domain."""


class ConstructionError(HselabError):
    """A basis family failed its internal verification gate."""


class CodecError(HselabError):
    """A wire line could not be decoded into a message."""


class HandshakeError(HselabError):
    """Hello exchange failed: version or parameter mismatch."""


class ProtocolError(HselabError):
    """A peer sent a message that violates the session state machine."""


class SessionError(HselabError):
    """Transport-level failure while a session was running."""
