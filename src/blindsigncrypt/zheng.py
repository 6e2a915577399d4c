"""Zheng-style signcryption: one pass gives encryption plus an SDSS-shaped tag.

Sender A, holding the recipient's public key y_B, picks a nonce k and derives
cipher/MAC keys from the shared element y_B^k mod p. The recipient rebuilds
the same element as (y_A * g^r)^(s * x_B) mod p, decrypts, and accepts only if
the keyed hash of (message, bind_info) reduces back to r.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crypto_suite import CryptoSuite, derive_keys, keyed_hash_to_scalar
from .errors import RngFailure, TagMismatch
from .group_math import (
    GroupElement,
    GroupParams,
    Scalar,
    modexp,
    rand_scalar_nonzero,
    retry,
)
from .sdss import KeyPair, key_power, s_from_nonce


@dataclass(frozen=True)
class SigncryptedText:
    c: bytes
    r: Scalar
    s: Scalar


def signcrypt_with_nonce(m: bytes, sender: KeyPair, recipient_pub: GroupElement,
                         bind_info: bytes, k: Scalar, params: GroupParams,
                         suite: CryptoSuite) -> SigncryptedText | None:
    """One signcryption attempt with a fixed nonce; None when r is degenerate.

    Split out so tests can drive known nonces and check the key agreement.
    """
    p, q = params.p, params.q
    shared = modexp(recipient_pub, k, p)
    keys = derive_keys(shared, suite)
    r = keyed_hash_to_scalar(keys.k2, m, bind_info, q, suite)
    s = s_from_nonce(k, r, sender.x, q)
    if s is None:
        return None
    return SigncryptedText(c=suite.cipher_encrypt(keys.k1, m), r=r, s=s)


def signcrypt(m: bytes, sender: KeyPair, recipient_pub: GroupElement,
              bind_info: bytes, params: GroupParams, suite: CryptoSuite,
              rng) -> SigncryptedText:
    # degenerate r: a fresh k gives fresh keys, hence a fresh r
    return retry(
        lambda: signcrypt_with_nonce(m, sender, recipient_pub, bind_info,
                                     rand_scalar_nonzero(rng, params.q), params, suite),
        RngFailure("signcrypt kept hitting degenerate r; suspect rng or hash stub"))


def shared_element(ct, recipient: KeyPair, signer_part: GroupElement,
                   params: GroupParams) -> GroupElement:
    """(signer_part * g^r)^(s * x_B) mod p for a text carrying r and s;
    signer_part is y_A here and y_A * T in blind signcryption."""
    return key_power(signer_part, ct.r, ct.s * recipient.x % params.q, params)


def open_sealed(ct, recipient: KeyPair, signer_part: GroupElement, bind_info: bytes,
                params: GroupParams, suite: CryptoSuite) -> tuple[bytes, GroupElement]:
    """The recipient path both signcryption schemes share: range-check r and
    s, rebuild the shared element, decrypt (the stream cipher is its own
    inverse), and accept only if the keyed hash reduces back to r.

    Returns the message and the shared element, the one place the recipient
    computes it; a rejected text raises TagMismatch and exposes neither."""
    if not (0 < ct.r < params.q and 0 < ct.s < params.q):
        raise TagMismatch("scalar out of range")  # rejects s+q style re-encodings
    shared = shared_element(ct, recipient, signer_part, params)
    keys = derive_keys(shared, suite)
    m = suite.cipher_encrypt(keys.k1, ct.c)
    if keyed_hash_to_scalar(keys.k2, m, bind_info, params.q, suite) != ct.r:
        raise TagMismatch("keyed-hash check failed")
    return m, shared


def unsigncrypt(ct: SigncryptedText, recipient: KeyPair,
                sender_pub: GroupElement, bind_info: bytes,
                params: GroupParams, suite: CryptoSuite) -> bytes:
    """Decrypt-and-verify. Returns the message or raises TagMismatch;
    nothing of the plaintext is exposed on failure."""
    return open_sealed(ct, recipient, sender_pub, bind_info, params, suite)[0]
