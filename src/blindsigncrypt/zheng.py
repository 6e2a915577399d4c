"""Zheng-style signcryption: one pass gives encryption plus an SDSS-shaped tag.

Sender A draws a nonce k from its rng and `seal`s m under the shared element
y_B^k mod p: cipher/MAC keys, keyed-hash r, ciphertext c. The recipient
rebuilds the element as (y_A * g^r)^(s * x_B) mod p, decrypts, and accepts only
if the keyed hash of (message, bind_info) reduces back to r.
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


def seal(shared: GroupElement, m: bytes, bind_info: bytes, params: GroupParams,
         suite: CryptoSuite) -> tuple[Scalar, bytes]:
    """Split shared into k1 and k2, then r = KH_k2(m, bind_info) mod q and
    c = E_k1(m). The senders of both signcryption schemes seal through here."""
    keys = derive_keys(shared, suite)
    r = keyed_hash_to_scalar(keys.k2, m, bind_info, params.q, suite)
    return r, suite.cipher_encrypt(keys.k1, m)


def signcrypt(m: bytes, sender: KeyPair, recipient_pub: GroupElement,
              bind_info: bytes, params: GroupParams, suite: CryptoSuite,
              rng) -> SigncryptedText:
    """Seal with a nonce k from rng; a degenerate r draws a fresh k, hence fresh keys."""
    def attempt():
        k = rand_scalar_nonzero(rng, params.q)
        r, c = seal(modexp(recipient_pub, k, params.p), m, bind_info, params, suite)
        s = s_from_nonce(k, r, sender.x, params.q)
        return None if s is None else SigncryptedText(c=c, r=r, s=s)

    return retry(attempt,
                 RngFailure("signcrypt kept hitting degenerate r; suspect rng or hash stub"))


def unsigncrypt(ct, recipient: KeyPair, signer_part: GroupElement, bind_info: bytes,
                params: GroupParams, suite: CryptoSuite) -> bytes:
    """Decrypt-and-verify, the recipient path of both signcryption schemes:
    range-check r and s, rebuild the shared element with `key_power`
    (signer_part is y_A here and y_A * T in blind signcryption), decrypt (the
    stream cipher is its own inverse), and accept only if the keyed hash
    reduces back to r. Returns the message or raises TagMismatch; nothing of
    the plaintext is exposed on failure."""
    if not (0 < ct.r < params.q and 0 < ct.s < params.q):
        raise TagMismatch("scalar out of range")  # rejects s+q style re-encodings
    shared = key_power(signer_part, ct.r, ct.s * recipient.x % params.q, params)
    keys = derive_keys(shared, suite)
    m = suite.cipher_encrypt(keys.k1, ct.c)
    if keyed_hash_to_scalar(keys.k2, m, bind_info, params.q, suite) != ct.r:
        raise TagMismatch("keyed-hash check failed")
    return m
