"""The primitives the schemes use: hash, keyed hash, stream cipher, key split.

Two fixed suites exist, each a class. "std-v1" (`CryptoSuite`) is SHA-256 /
HMAC-SHA-256 / an XOR stream cipher whose keystream is SHA-256(k1 || counter).
Past its first block, and with a counter below 2^32, that keystream is ANSI
X9.63's KDF output for Z = k1 || 0^4 (the KDF's counter starts at 1). So
from KDF_MIN_BYTES on, libcrypto's ECDH_KDF_X9_62 writes it in one call;
shorter data, or a libcrypto without that function, takes a hashlib loop
that gives the same bytes.
"toy-v1" (`ToyCryptoSuite`) uses the same primitives but lets tests pin
individual hash outputs so small-prime worked vectors come out exactly.

Canonical preimage layouts (normative; also documented with the wire format):
  * signature hashes take  int_to_bytes(group_element) || message
  * keyed hashes take      len(message) as 8-byte BE || message || bind_info
"""

from __future__ import annotations

import ctypes
import hashlib
import hmac
from dataclasses import dataclass

from . import group_math
from .group_math import Scalar, int_to_bytes

DIGEST_LEN = 32


def _declare_kdf(lib):
    """lib (group_math's libcrypto handle) with ECDH_KDF_X9_62 and EVP_sha256
    declared for _keystream_xor; None where libcrypto did not load or either
    symbol is missing. The power kernel does not depend on them."""
    try:
        kdf, md = lib.ECDH_KDF_X9_62, lib.EVP_sha256
    except AttributeError:  # no libcrypto (lib is None), or no such symbol
        return None
    ptr, size = ctypes.c_void_p, ctypes.c_size_t
    kdf.argtypes = [ptr, size, ctypes.c_char_p, size, ctypes.c_char_p, size, ptr]
    kdf.restype = ctypes.c_int
    md.argtypes, md.restype = [], ptr
    return lib


# Declared once at import; never written after, as group_math._libcrypto is.
_libcrypto = _declare_kdf(group_math._libcrypto)

# Messages shorter than this take the hashlib loop: OpenSSL 3.0 fetches the
# KDF's implementation on every call, 6-7 µs, and the two paths cost the same
# at 320-360 B (interleaved timings on a 2-vCPU Xeon VM).
KDF_MIN_BYTES = 352


def _keystream(key: bytes, n: int):
    """The first n bytes of _keystream_xor's keystream."""
    lib = _libcrypto
    blocks = -(-n // DIGEST_LEN)
    if lib is not None and KDF_MIN_BYTES <= n and blocks < 1 << 32:
        stream = bytearray(n)
        stream[:DIGEST_LEN] = hashlib.sha256(key + bytes(8)).digest()
        rest = ctypes.c_char.from_buffer(stream, DIGEST_LEN)
        z = key + bytes(4)
        if lib.ECDH_KDF_X9_62(ctypes.byref(rest), n - DIGEST_LEN, z, len(z),
                              None, 0, lib.EVP_sha256()) == 1:
            return stream
        lib.ERR_clear_error()  # so that hashlib never reads this failure as its own
    keyed = hashlib.sha256(key)
    out = []
    for counter in range(blocks):
        block = keyed.copy()
        block.update(counter.to_bytes(8, "big"))
        out.append(block.digest())
    return b"".join(out)[:n]


def _keystream_xor(key: bytes, data: bytes) -> bytes:
    """XOR with keystream blocks SHA-256(key || counter), counter an 8-byte
    big-endian block index. Confidentiality only; integrity comes from the
    schemes' own keyed-hash check.

    Block i < 2^32 is SHA-256((key || 0^4) || i as 4-byte BE): the block for
    counter i of ANSI X9.63's KDF (SEC 1 v2 §3.6.1), with Z = key || 0^4 and
    no shared info, whose counter starts at 1. So from KDF_MIN_BYTES on, and
    below 2^32 blocks (the X9.63 counter width), block 0 is hashed here and
    one call of libcrypto's ECDH_KDF_X9_62 writes blocks 1 to N-1 straight
    after it. Shorter data, a libcrypto without the KDF and a failed call
    take the hashlib loop: key is hashed once and each block copies that
    state. Either way no Python code runs per byte: the buffer is XORed with
    the keystream as one big integer.
    """
    n = len(data)
    # the keystream buffer is freed before data's integer is made
    stream = int.from_bytes(_keystream(key, n), "big")
    # to_bytes(n) keeps leading zero bytes of the result and gives b"" for n = 0
    return (int.from_bytes(data, "big") ^ stream).to_bytes(n, "big")


class CryptoSuite:
    """The std-v1 suite: SHA-256, HMAC-SHA-256 and the SHA-256 keystream."""

    suite_id = "std-v1"
    # the XOR stream is its own inverse, so this one method also decrypts
    cipher_encrypt = staticmethod(_keystream_xor)

    def hash(self, data: bytes) -> bytes:
        return hashlib.sha256(data).digest()

    def keyed_hash(self, key: bytes, message: bytes) -> bytes:
        return hmac.digest(key, message, "sha256")


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
    return b"".join((len(message).to_bytes(8, "big"), message, bind_info))


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
