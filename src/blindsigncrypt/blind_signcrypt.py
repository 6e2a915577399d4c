"""Blind signcryption: signer A blindly signs what requester B encrypts to C.

B runs the blind-SDSS session against A, but derives r from a keyed hash
instead of a plain hash: B picks u, computes the shared element y_C^u mod p,
splits it into cipher/MAC keys, encrypts m under k1, and sets
r = KH_k2(m, bind_info) mod q. A never sees m, c, or r - only the blinded
challenge r_bar. The delivered text is (c, r, s, T).

Recipient C rebuilds the shared element as (y_A * T * g^r)^(s * x_C) mod p
(the signature check and the key agreement are the same exponentiation),
decrypts, and accepts only if the keyed hash reduces back to r.

Both halves of the session are the blind-SDSS ones: the signer half is
shared outright (`bsc_signer_commit` / `bsc_signer_respond` are aliases), and
the requester runs the same core (`blind_sdss.blind_challenge` and
`blind_sdss.unblind`) with the keyed hash in place of the plain one. The
recipient's open path is Zheng's, with y_A * T in place of y_A.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import zheng
from .blind_sdss import (
    BlindingSession,
    ChallengeMsg,
    blind_challenge,
    signer_commit as bsc_signer_commit,
    signer_respond as bsc_signer_respond,
    unblind,
)
from .crypto_suite import CryptoSuite, derive_keys, keyed_hash_to_scalar
from .errors import TagMismatch
from .group_math import GroupElement, GroupParams, Scalar, modexp
from .sdss import KeyPair

__all__ = [
    "BlindSigncryptedText",
    "BscRequesterSession",
    "bsc_signer_commit",
    "bsc_signer_respond",
    "bsc_requester_challenge",
    "bsc_requester_finalize",
    "open_sealed",
    "unsigncrypt",
]


@dataclass(frozen=True)
class BlindSigncryptedText:
    c: bytes
    r: Scalar
    s: Scalar
    T: GroupElement


@dataclass
class BscRequesterSession(BlindingSession):
    c: bytes


def bsc_requester_challenge(m: bytes, z: GroupElement,
                            recipient_pub: GroupElement, bind_info: bytes,
                            params: GroupParams, suite: CryptoSuite,
                            rng) -> tuple[BscRequesterSession, ChallengeMsg]:
    """Encrypt m to the recipient and send the blinded challenge.

    Execution order: u -> shared -> key split -> r, c -> beta, r_bar ->
    alpha, T. A zero r forces a fresh u (fresh u means fresh keys and hence a
    fresh r); a zero r_bar forces a fresh beta.
    """
    def derive_r(u):
        keys = derive_keys(modexp(recipient_pub, u, params.p), suite)
        r = keyed_hash_to_scalar(keys.k2, m, bind_info, params.q, suite)
        return r, {"c": suite.cipher_encrypt(keys.k1, m)}

    return blind_challenge(BscRequesterSession, z, derive_r, params, rng)


def bsc_requester_finalize(session: BscRequesterSession, s_bar: Scalar,
                           params: GroupParams) -> BlindSigncryptedText:
    """Unblind the response and emit the signcrypted text (c, r, s, T)."""
    s = unblind(session, s_bar, params.q)
    return BlindSigncryptedText(c=session.c, r=session.r, s=s, T=session.T)


def shared_element(ct: BlindSigncryptedText, recipient: KeyPair,
                   signer_pub: GroupElement, params: GroupParams) -> GroupElement:
    """(y_A * T * g^r)^(s * x_C) mod p; equals y_C^u mod p for honest texts."""
    return zheng.shared_element(ct, recipient, signer_pub * ct.T % params.p, params)


def open_sealed(ct: BlindSigncryptedText, recipient: KeyPair,
                signer_pub: GroupElement, bind_info: bytes, params: GroupParams,
                suite: CryptoSuite) -> tuple[bytes, GroupElement]:
    """The recipient's move: range-check T, then Zheng's open with y_A * T.
    Returns the message and the shared element (y_C^u mod p for an honest
    text), or raises TagMismatch and exposes neither."""
    if not 0 < ct.T < params.p:
        raise TagMismatch("T out of range")  # rejects T+p style re-encodings
    return zheng.open_sealed(ct, recipient, signer_pub * ct.T % params.p, bind_info,
                             params, suite)


def unsigncrypt(ct: BlindSigncryptedText, recipient: KeyPair,
                signer_pub: GroupElement, bind_info: bytes,
                params: GroupParams, suite: CryptoSuite) -> bytes:
    """Decrypt-and-verify; returns the message or raises TagMismatch."""
    return open_sealed(ct, recipient, signer_pub, bind_info, params, suite)[0]
