"""The primitives the schemes use: hash, keyed hash, stream cipher, key split.

Two fixed suites exist, each a class. "std-v1" (`CryptoSuite`) is SHA-256 /
HMAC-SHA-256 / an XOR stream cipher whose keystream is SHA-256(k1 || counter).
"toy-v1" (`ToyCryptoSuite`) uses the same primitives but lets tests pin
individual hash outputs so small-prime worked vectors come out exactly.

Canonical preimage layouts (normative; also documented with the wire format):
  * signature hashes take  int_to_bytes(group_element) || message
  * keyed hashes take      len(message) as 8-byte BE || message || bind_info
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from .group_math import Scalar, int_to_bytes

DIGEST_LEN = 32


def _keystream_xor(key: bytes, data: bytes) -> bytes:
    """XOR with keystream blocks SHA-256(key || counter), counter an 8-byte
    big-endian block index. Confidentiality only; integrity comes from the
    schemes' own keyed-hash check.

    No Python code runs per byte: key is hashed once and each block copies that
    state, and the buffer is XORed with the keystream as one big integer.
    """
    n = len(data)
    keyed = hashlib.sha256(key)
    blocks = []
    for counter in range(-(-n // DIGEST_LEN)):
        block = keyed.copy()
        block.update(counter.to_bytes(8, "big"))
        blocks.append(block.digest())
    stream = b"".join(blocks)[:n]
    # to_bytes(n) keeps leading zero bytes of the result and gives b"" for n = 0
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(n, "big")


class CryptoSuite:
    """The std-v1 suite: SHA-256, HMAC-SHA-256 and the SHA-256 keystream."""

    suite_id = "std-v1"
    # the XOR stream is its own inverse, so this one method also decrypts
    cipher_encrypt = staticmethod(_keystream_xor)

    def hash(self, data: bytes) -> bytes:
        return hashlib.sha256(data).digest()

    def keyed_hash(self, key: bytes, message: bytes) -> bytes:
        return hmac.new(key, message, hashlib.sha256).digest()


@dataclass(frozen=True)
class SplitKeys:
    k1: bytes  # cipher key
    k2: bytes  # keyed-hash key


def derive_keys(shared: int, suite: CryptoSuite) -> SplitKeys:
    """Split the shared group element into independent cipher and MAC keys.

    Labeled hashing (0x01 / 0x02 prefixes) gives two full-length keys instead
    of bisecting one digest.
    """
    shared_bytes = int_to_bytes(shared)
    return SplitKeys(
        k1=suite.hash(b"\x01" + shared_bytes),
        k2=suite.hash(b"\x02" + shared_bytes),
    )


def hash_to_scalar(digest_input: bytes, q: int, suite: CryptoSuite) -> Scalar:
    """Hash and reduce mod q (big-endian digest read as an integer)."""
    return int.from_bytes(suite.hash(digest_input), "big") % q


def kh_preimage(message: bytes, bind_info: bytes) -> bytes:
    """Injective (message, bind_info) encoding for the keyed hash."""
    return len(message).to_bytes(8, "big") + message + bind_info


def keyed_hash_to_scalar(
    key: bytes, message: bytes, bind_info: bytes, q: int, suite: CryptoSuite
) -> Scalar:
    """Keyed hash of (message, bind_info) reduced mod q."""
    tag = suite.keyed_hash(key, kh_preimage(message, bind_info))
    return int.from_bytes(tag, "big") % q


class ToyCryptoSuite(CryptoSuite):
    """Deterministic test suite whose hash outputs can be pinned per preimage.

    Stubbing is a test-only facility: a pinned value is returned as a 32-byte
    big-endian integer, so hash_to_scalar yields the value itself whenever it
    is below q. Unpinned inputs fall back to the real primitives.
    """

    suite_id = "toy-v1"

    def __init__(self):
        self._hash_stubs: dict[bytes, int] = {}
        self._keyed_stubs: dict[tuple[bytes, bytes], int] = {}

    def stub_hash(self, preimage: bytes, value: int) -> None:
        self._hash_stubs[preimage] = value

    def stub_keyed_hash(self, key: bytes, message: bytes, value: int) -> None:
        self._keyed_stubs[(key, message)] = value

    def hash(self, data: bytes) -> bytes:
        if data in self._hash_stubs:
            return self._hash_stubs[data].to_bytes(DIGEST_LEN, "big")
        return super().hash(data)

    def keyed_hash(self, key: bytes, message: bytes) -> bytes:
        if (key, message) in self._keyed_stubs:
            return self._keyed_stubs[(key, message)].to_bytes(DIGEST_LEN, "big")
        return super().keyed_hash(key, message)


def toy_suite() -> ToyCryptoSuite:
    return ToyCryptoSuite()


def std_suite() -> CryptoSuite:
    return CryptoSuite()


def get_suite(suite_id: str) -> CryptoSuite:
    """Resolve a wire-header suite_id to a fresh suite instance. Only std-v1
    resolves: toy-v1 is built with toy_suite() by the tests that pin it."""
    if suite_id == CryptoSuite.suite_id:
        return std_suite()
    raise KeyError(f"unknown suite {suite_id!r}")
