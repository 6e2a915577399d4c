"""Pluggable primitive suite: hash, keyed hash, symmetric cipher, key split.

Two fixed suites exist. "std-v1" is SHA-256 / HMAC-SHA-256 / an XOR stream
cipher whose keystream is SHA-256(k1 || counter). "toy-v1" uses the same
primitives but lets tests pin individual hash outputs so small-prime worked
vectors come out exactly.

Canonical preimage layouts (normative; also documented with the wire format):
  * signature hashes take  int_to_bytes(group_element) || message
  * keyed hashes take      len(message) as 8-byte BE || message || bind_info
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Callable

from .group_math import Scalar, int_to_bytes

DIGEST_LEN = 32


def _sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _hmac_sha256(key: bytes, message: bytes) -> bytes:
    return hmac.new(key, message, hashlib.sha256).digest()


def _keystream_xor(key: bytes, data: bytes) -> bytes:
    """XOR with keystream blocks SHA-256(key || counter). Confidentiality only;
    integrity comes from the schemes' own keyed-hash check."""
    out = bytearray()
    counter = 0
    while len(out) < len(data):
        out += _sha256(key + counter.to_bytes(8, "big"))
        counter += 1
    return bytes(a ^ b for a, b in zip(data, out))


@dataclass
class CryptoSuite:
    suite_id: str
    hash: Callable[[bytes], bytes] = _sha256
    keyed_hash: Callable[[bytes, bytes], bytes] = _hmac_sha256
    # the XOR stream is its own inverse, so this one field also decrypts
    cipher_encrypt: Callable[[bytes, bytes], bytes] = _keystream_xor


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

    def __init__(self):
        self._hash_stubs: dict[bytes, int] = {}
        self._keyed_stubs: dict[tuple[bytes, bytes], int] = {}
        super().__init__(
            suite_id="toy-v1",
            hash=self._hash,
            keyed_hash=self._keyed_hash,
        )

    def stub_hash(self, preimage: bytes, value: int) -> None:
        self._hash_stubs[preimage] = value

    def stub_keyed_hash(self, key: bytes, message: bytes, value: int) -> None:
        self._keyed_stubs[(key, message)] = value

    def _hash(self, data: bytes) -> bytes:
        if data in self._hash_stubs:
            return self._hash_stubs[data].to_bytes(DIGEST_LEN, "big")
        return _sha256(data)

    def _keyed_hash(self, key: bytes, message: bytes) -> bytes:
        if (key, message) in self._keyed_stubs:
            return self._keyed_stubs[(key, message)].to_bytes(DIGEST_LEN, "big")
        return _hmac_sha256(key, message)


def toy_suite() -> ToyCryptoSuite:
    return ToyCryptoSuite()


def std_suite() -> CryptoSuite:
    return CryptoSuite(suite_id="std-v1")


def get_suite(suite_id: str) -> CryptoSuite:
    """Resolve a wire-header suite_id to a fresh suite instance."""
    if suite_id == "std-v1":
        return std_suite()
    if suite_id == "toy-v1":
        return toy_suite()
    raise KeyError(f"unknown suite {suite_id!r}")
