"""Canonical serialization for every public value and protocol message.

Envelope layout (normative, bit-exact):

    magic     4 bytes  "BSC1"
    msg_type  1 byte   (see table below)
    suite_id  2-byte BE length || string bytes
    body      the type's fields, in declared order

Body fields come in four kinds:

    integer   2-byte BE length || minimal big-endian bytes (0 is empty,
              leading zero bytes are rejected as non-canonical)
    bytes     4-byte BE length || raw bytes
    bool      an integer that is 0 or 1; any other value is non-canonical
    params    p, q, g as three integers, read back as a GroupParams

Message types:

    0x01 Params               p, q, g
    0x02 PubKey               y
    0x03 Commit               z
    0x04 Challenge            r_bar
    0x05 Response             s_bar
    0x06 SdssSig              r, s
    0x07 SigncryptedText      c, r, s
    0x08 BlindSigncryptedText c, r, s, T
    0x09 BlindSig             r, s, T
    0x0A SignerSession        params, k_tilde, spent
    0x0B RequesterSession     params, u, alpha, beta, r, T, spent, m, signer_pub
    0x0C BscRequesterSession  params, u, alpha, beta, r, T, spent, c

The session types are the one-shot state that the CLI persists between moves.

Equal values always encode to identical bytes, and decode(b) = v implies
encode(v) = b. Decoding never raises anything but the named WireError
subclasses, however malformed the input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blind_sdss import (
    BlindSignature,
    ChallengeMsg,
    CommitMsg,
    RequesterSession,
    ResponseMsg,
    SignerSession,
)
from .blind_signcrypt import BlindSigncryptedText, BscRequesterSession
from .crypto_suite import CryptoSuite
from .errors import (
    ArmorError,
    BadMagic,
    NonCanonicalInteger,
    TrailingBytes,
    Truncated,
    UnknownType,
    int_text,
)
from .group_math import GroupParams, int_to_bytes
from .sdss import SdssSignature
from .zheng import SigncryptedText

MAGIC = b"BSC1"


@dataclass(frozen=True)
class PubKeyMsg:
    y: int


# The fields both requester sessions share (blind_sdss.BlindingSession).
_BLINDING = (("params", "params"), ("u", "int"), ("alpha", "int"), ("beta", "int"),
             ("r", "int"), ("T", "int"), ("spent", "bool"))

# msg_type -> (dataclass, ((field, kind), ...)) with kind "int", "bytes",
# "bool" or "params"
_TYPES: dict[int, tuple[type, tuple[tuple[str, str], ...]]] = {
    0x01: (GroupParams, (("p", "int"), ("q", "int"), ("g", "int"))),
    0x02: (PubKeyMsg, (("y", "int"),)),
    0x03: (CommitMsg, (("z", "int"),)),
    0x04: (ChallengeMsg, (("r_bar", "int"),)),
    0x05: (ResponseMsg, (("s_bar", "int"),)),
    0x06: (SdssSignature, (("r", "int"), ("s", "int"))),
    0x07: (SigncryptedText, (("c", "bytes"), ("r", "int"), ("s", "int"))),
    0x08: (BlindSigncryptedText,
           (("c", "bytes"), ("r", "int"), ("s", "int"), ("T", "int"))),
    0x09: (BlindSignature, (("r", "int"), ("s", "int"), ("T", "int"))),
    0x0A: (SignerSession, (("params", "params"), ("k_tilde", "int"), ("spent", "bool"))),
    0x0B: (RequesterSession, _BLINDING + (("m", "bytes"), ("signer_pub", "int"))),
    0x0C: (BscRequesterSession, _BLINDING + (("c", "bytes"),)),
}

_CLASS_TO_TYPE = {cls: code for code, (cls, _) in _TYPES.items()}


def encode(value, suite_id: str = CryptoSuite.suite_id) -> bytes:
    """Canonical bytes for any wire type; same value, same bytes."""
    try:
        code = _CLASS_TO_TYPE[type(value)]
    except KeyError:
        raise TypeError(f"{type(value).__name__} is not a wire type") from None
    _, layout = _TYPES[code]
    sid = suite_id.encode("latin-1")
    out = bytearray(MAGIC)
    out.append(code)
    out += len(sid).to_bytes(2, "big") + sid
    for name, kind in layout:
        raw = getattr(value, name)
        if kind == "bytes":
            out += len(raw).to_bytes(4, "big")
            out += raw  # not joined to its prefix first: that copies a whole ciphertext
            continue
        for n in (raw.p, raw.q, raw.g) if kind == "params" else (raw,):
            payload = int_to_bytes(n)
            out += len(payload).to_bytes(2, "big") + payload
    return bytes(out)


def decode(data: bytes):
    """Parse canonical bytes into (value, suite_id) or raise a named WireError."""
    if len(data) < 4 or data[:4] != MAGIC:
        raise BadMagic("input does not start with BSC1")
    if len(data) < 5:
        raise Truncated("missing msg_type byte")
    code = data[4]
    if code not in _TYPES:
        raise UnknownType(f"unknown msg_type 0x{code:02x}")
    cls, layout = _TYPES[code]

    offset = 5
    sid_bytes, offset = _take_prefixed(data, offset, 2, "suite_id")
    suite_id = sid_bytes.decode("latin-1")

    values = {}
    for name, kind in layout:
        if kind == "bytes":
            values[name], offset = _take_prefixed(data, offset, 4, name)
        elif kind == "params":
            p, offset = _take_int(data, offset, f"{name}.p")
            q, offset = _take_int(data, offset, f"{name}.q")
            g, offset = _take_int(data, offset, f"{name}.g")
            values[name] = GroupParams(p, q, g)
        else:
            n, offset = _take_int(data, offset, name)
            if kind == "bool" and n > 1:
                raise NonCanonicalInteger(f"field {name} must be 0 or 1, not {int_text(n)}")
            values[name] = bool(n) if kind == "bool" else n
    if offset != len(data):
        raise TrailingBytes(f"{len(data) - offset} bytes after the last field")
    return cls(**values), suite_id


def _take_int(data: bytes, offset: int, name: str) -> tuple[int, int]:
    payload, offset = _take_prefixed(data, offset, 2, name)
    if payload[:1] == b"\x00":
        raise NonCanonicalInteger(f"field {name} has a leading zero byte")
    return int.from_bytes(payload, "big"), offset


def _take_prefixed(data: bytes, offset: int, prefix_len: int, name: str) -> tuple[bytes, int]:
    if offset + prefix_len > len(data):
        raise Truncated(f"length prefix of {name} cut short")
    length = int.from_bytes(data[offset:offset + prefix_len], "big")
    offset += prefix_len
    if offset + length > len(data):
        raise Truncated(f"field {name} declares {length} bytes but fewer remain")
    return data[offset:offset + length], offset + length


# -- text armor for CLI file exchange ------------------------------------------

ARMOR_HEADER = "BSC1-ARMOR-V1"


def armor(data: bytes) -> str:
    """Hex with a header line, wrapped for readability."""
    hexed = data.hex()
    lines = [hexed[i:i + 72] for i in range(0, len(hexed), 72)] or [""]
    return "\n".join([ARMOR_HEADER, *lines]) + "\n"


def dearmor(text: str) -> bytes:
    lines = text.strip().splitlines()
    if not lines or lines[0].strip() != ARMOR_HEADER:
        raise ArmorError("missing armor header line")
    hexed = "".join(line.strip() for line in lines[1:])
    try:
        return bytes.fromhex(hexed)
    except ValueError as exc:
        raise ArmorError(f"bad armor hex: {exc}") from exc
