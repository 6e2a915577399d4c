"""Exception hierarchy shared by every module in the package."""


class ProtocolError(Exception):
    """Base class for all errors raised by this package."""


# -- group / parameter errors -------------------------------------------------

class ZeroInverse(ProtocolError):
    """Attempted to invert a value that is 0 mod q."""


class RngFailure(ProtocolError):
    """The random source failed or kept producing unusable values."""


class NotPrime(ProtocolError):
    """A parameter that must be prime is not."""

    def __init__(self, which: str, value: int):
        self.which = which
        self.value = value
        super().__init__(f"{which} = {value} failed the primality test")


class OrderMismatch(ProtocolError):
    """q does not divide p - 1."""


class BadGenerator(ProtocolError):
    """g is not an order-q element of the group (or g = 1)."""


class GenerationTimeout(ProtocolError):
    """Parameter generation exceeded its retry budget."""


# -- protocol / session errors ------------------------------------------------

class TagMismatch(ProtocolError):
    """Keyed-hash check failed: tampering, wrong keys, or wrong bind_info."""


class BadCommit(ProtocolError):
    """Commitment z is divisible by q and must be rejected."""


class BadChallenge(ProtocolError):
    """Challenge value is 0 mod q."""


class InvalidState(ProtocolError):
    """Session method called in the wrong state (usually reuse)."""


class DegenerateDenominator(ProtocolError):
    """r + s_bar + alpha = 0 mod q; the whole session must be restarted."""


class InconsistentPair(ProtocolError):
    """No blinding factors reconcile the given view with the signature."""


class HarnessCheckFailed(ProtocolError):
    """An honest transcript failed one of the harness's consistency checks."""


# -- wire format errors -------------------------------------------------------

class WireError(ProtocolError):
    """Base class for serialization failures."""


class BadMagic(WireError):
    """Input does not start with the protocol magic bytes."""


class UnknownType(WireError):
    """Unrecognized message type byte."""


class Truncated(WireError):
    """Input ended before a declared field was complete."""


class NonCanonicalInteger(WireError):
    """Integer field encoded with leading zero bytes."""


class TrailingBytes(WireError):
    """Bytes remain after the last declared field."""


class ArmorError(WireError):
    """Text armor is malformed."""
