"""Exception hierarchy shared by every module in the package."""

# Python 3.11+ refuses to write an int of more than 4300 decimal digits
# (sys.get_int_max_str_digits), so a message names a wider value by its size.
DECIMAL_MAX_BITS = 1024


def int_text(n: int) -> str:
    """n in decimal for a message, or its bit length past DECIMAL_MAX_BITS."""
    return str(n) if n.bit_length() <= DECIMAL_MAX_BITS else f"a {n.bit_length()}-bit integer"


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
        super().__init__(f"{which} = {int_text(value)} failed the primality test")


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
    """Commitment z is outside [1, p-1] or divisible by q and must be rejected."""


class BadChallenge(ProtocolError):
    """Challenge value is 0 mod q."""


class InvalidState(ProtocolError):
    """Session method called in the wrong state (usually reuse)."""


class DegenerateDenominator(ProtocolError):
    """r + s_bar + alpha = 0 mod q; the whole session must be restarted."""


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
    """Integer field with leading zero bytes, or a bool field other than 0 or 1."""


class TrailingBytes(WireError):
    """Bytes remain after the last declared field."""


class ArmorError(WireError):
    """Text armor is malformed."""
